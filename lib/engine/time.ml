type t = int

let zero = 0
let max_value = max_int
let min_value = min_int

let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000

(* [2^62] as a float: every rounded float at or beyond it (either sign)
   lies outside the int range and saturates. *)
let float_bound = 4611686018427387904.

let of_float_ns x =
  if not (Float.is_finite x) then invalid_arg "Time: non-finite duration";
  let r = Float.round x in
  if r >= float_bound then max_value
  else if r <= -.float_bound then min_value
  else int_of_float r

let of_sec_f x = of_float_ns (x *. 1e9)
let of_ms_f x = of_float_ns (x *. 1e6)

let to_ns t = Int64.of_int t

let of_ns64 n =
  if n >= Int64.of_int max_value then max_value
  else if n <= Int64.of_int min_value then min_value
  else Int64.to_int n

let to_sec_f t = float_of_int t /. 1e9
let to_ms_f t = float_of_int t /. 1e6

(* Saturating addition: an event scheduled "never + delta" must stay
   "never", not wrap around to the distant past. *)
let add a b =
  let r = a + b in
  if a > 0 && b > 0 && r < 0 then max_value else r

let sub a b = a - b
let diff later earlier = later - earlier
let mul_int t k = t * k

let scale t x = of_float_ns (float_of_int t *. x)

let ratio a b =
  if b = 0 then raise Division_by_zero;
  float_of_int a /. float_of_int b

let compare = Int.compare
let equal = Int.equal
let ( < ) (a : t) b = a < b
let ( <= ) (a : t) b = a <= b
let ( > ) (a : t) b = a > b
let ( >= ) (a : t) b = a >= b
let min (a : t) b = if a <= b then a else b
let max (a : t) b = if a >= b then a else b
let is_negative t = t < 0

let pp fmt t =
  let abs = Stdlib.abs t in
  let sign = if is_negative t then "-" else "" in
  if abs < 1_000 then Format.fprintf fmt "%s%dns" sign abs
  else if abs < 1_000_000 then
    Format.fprintf fmt "%s%.1fus" sign (float_of_int abs /. 1e3)
  else if abs < 1_000_000_000 then
    Format.fprintf fmt "%s%.2fms" sign (float_of_int abs /. 1e6)
  else Format.fprintf fmt "%s%.3fs" sign (float_of_int abs /. 1e9)

let to_string t = Format.asprintf "%a" pp t
