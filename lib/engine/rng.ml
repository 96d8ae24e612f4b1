(* The 64-bit SplitMix64 state lives in an 8-byte buffer.  A [mutable
   int64] record field would hold a boxed value and allocate a fresh box
   on every draw; the bytes primitives read and write it unboxed, so
   with [mix64] inlined a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 output function (Stafford's Mix13 variant). *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 state;
  mix64 state

let split t = of_state (bits64 t)
let copy t = Bytes.copy t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 63 bits to stay unbiased: reject
     values in the final, partial copy of [0, bound).  A loop rather
     than a local recursive function, so no closure is built. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub (Int64.sub Int64.max_int bound64) 1L in
  let result = ref (-1) in
  while !result < 0 do
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem r bound64 in
    if Int64.sub r v <= limit then result := Int64.to_int v
  done;
  !result

let[@inline] unit_float t =
  (* 53 uniform mantissa bits in [0, 1). *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. (1. /. 9007199254740992.)

let float t bound =
  if not (Float.is_finite bound) || bound <= 0. then
    invalid_arg "Rng.float: bound must be positive and finite";
  unit_float t *. bound

let bernoulli t p = unit_float t < p

let[@inline] exponential t ~mean =
  if not (Float.is_finite mean) || mean <= 0. then
    invalid_arg "Rng.exponential: mean must be positive";
  let u = 1. -. unit_float t in
  -.mean *. Float.log u

(* The draw and the rounding of [Time.of_sec_f] in one function, so
   that the float never crosses a module boundary and is never boxed.
   The draw is never negative, so only the upper clamp (2^62, as in
   [Time]) can apply. *)
let exponential_ns t ~mean =
  let x = exponential t ~mean *. 1e9 in
  if not (Float.is_finite x) then invalid_arg "Rng.exponential_ns: non-finite duration";
  let r = Float.round x in
  if r >= 4611686018427387904. then max_int else int_of_float r

let normal t ~mu ~sigma =
  if not (Float.is_finite sigma) || sigma < 0. then
    invalid_arg "Rng.normal: sigma must be non-negative";
  let u1 = 1. -. unit_float t and u2 = unit_float t in
  let z = Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2) in
  mu +. (sigma *. z)

let lognormal t ~mu ~sigma = Float.exp (normal t ~mu ~sigma)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_weighted t arr =
  let total =
    Array.fold_left
      (fun acc (_, w) ->
        if not (Float.is_finite w) || w < 0. then
          invalid_arg "Rng.pick_weighted: weights must be non-negative";
        acc +. w)
      0. arr
  in
  if total <= 0. then invalid_arg "Rng.pick_weighted: zero total weight";
  let x = float t total in
  let n = Array.length arr in
  let rec go i acc =
    if i = n - 1 then fst arr.(i)
    else
      let acc = acc +. snd arr.(i) in
      if x < acc then fst arr.(i) else go (i + 1) acc
  in
  go 0 0.

(* Guide-table (cutpoint) search, Chen & Asau 1974; Devroye,
   Non-Uniform Random Variate Generation, III.2.4.  [0, total] is cut
   into n equal buckets by [bucket], and [guide.(b)] is the first index
   whose cumulative weight lies in bucket [b] or later.  [bucket] is
   monotone (rounding and truncation both are), so every index before
   [guide.(bucket x)] has a cumulative weight below [x]: the walk from
   there finds the same index as a binary search.  It passes only the
   cumulative weights inside [x]'s bucket, which hold one index on
   average over a uniform [x], whatever the skew. *)
module Weighted = struct
  type t = {
    cum : float array;  (* cumulative weights, left-to-right sums *)
    guide : int array;
    scale : float;  (* buckets per unit of weight *)
    last : int;
  }

  let[@inline] bucket w x =
    let b = Float.to_int (x *. w.scale) in
    if b > w.last then w.last else if b < 0 then 0 else b

  let create weights =
    let n = Array.length weights in
    if n = 0 then invalid_arg "Rng.Weighted.create: no weights";
    let cum = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let x = weights.(i) in
      if Float.is_nan x || x < 0. then
        invalid_arg "Rng.Weighted.create: weights must be non-negative";
      acc := !acc +. x;
      cum.(i) <- !acc
    done;
    let total = cum.(n - 1) in
    if not (Float.is_finite total) || total <= 0. then
      invalid_arg "Rng.Weighted.create: total weight must be positive and finite";
    (* A total so small that n / total overflows gets one bucket: still
       exact, only linear. *)
    let scale =
      let s = float_of_int n /. total in
      if Float.is_finite s then s else 0.
    in
    let w = { cum; guide = Array.make n (n - 1); scale; last = n - 1 } in
    let b = ref 0 in
    for i = 0 to n - 1 do
      let bi = bucket w cum.(i) in
      while !b <= bi do
        w.guide.(!b) <- i;
        incr b
      done
    done;
    w

  let[@inline] find w x =
    let i = ref w.guide.(bucket w x) in
    while !i < w.last && w.cum.(!i) <= x do
      incr i
    done;
    !i

  let draw w t = find w (unit_float t *. w.cum.(w.last))
end

