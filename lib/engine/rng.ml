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

(* Every draw below is written once, over a state at byte offset [off]
   of a buffer: a [t] is the one-state buffer read at offset 0, and a
   {!Streams} buffer holds one state every 8 bytes.  The cores are
   inlined into both, so neither boxes the state. *)
let[@inline] bits64_at b off =
  let state = Int64.add (Bytes.get_int64_le b off) golden_gamma in
  Bytes.set_int64_le b off state;
  mix64 state

let[@inline] bits64 t = bits64_at t 0

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

let[@inline] unit_float_at b off =
  (* 53 uniform mantissa bits in [0, 1). *)
  let r = Int64.shift_right_logical (bits64_at b off) 11 in
  Int64.to_float r *. (1. /. 9007199254740992.)

let[@inline] unit_float t = unit_float_at t 0

let float t bound =
  if not (Float.is_finite bound) || bound <= 0. then
    invalid_arg "Rng.float: bound must be positive and finite";
  unit_float t *. bound

let[@inline] bernoulli_at b off p = unit_float_at b off < p
let bernoulli t p = bernoulli_at t 0 p

let[@inline] exponential_at b off ~mean =
  if not (Float.is_finite mean) || mean <= 0. then
    invalid_arg "Rng.exponential: mean must be positive";
  let u = 1. -. unit_float_at b off in
  -.mean *. Float.log u

let exponential t ~mean = exponential_at t 0 ~mean

(* The draw and the rounding of [Time.of_sec_f] in one function, so
   that the float never crosses a module boundary and is never boxed.
   The draw is never negative, so only the upper clamp (2^62, as in
   [Time]) can apply. *)
let[@inline] exponential_ns_at b off ~mean =
  let x = exponential_at b off ~mean *. 1e9 in
  if not (Float.is_finite x) then invalid_arg "Rng.exponential_ns: non-finite duration";
  let r = Float.round x in
  if r >= 4611686018427387904. then max_int else int_of_float r

let exponential_ns t ~mean = exponential_ns_at t 0 ~mean

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

  let[@inline] draw_at w b off = find w (unit_float_at b off *. w.cum.(w.last))
  let draw w t = draw_at w t 0
end

(* Stream [i] is the state at byte offset [8 * i]: one flat buffer for
   n streams, where n [split]s would allocate n buffers. *)
module Streams = struct
  type t = Bytes.t

  let split rng n =
    if n < 0 then invalid_arg "Rng.Streams.split: negative count";
    let b = Bytes.create (8 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int64_le b (8 * i) (bits64 rng)
    done;
    b

  let bernoulli b i p = bernoulli_at b (8 * i) p
  let exponential_ns b i ~mean = exponential_ns_at b (8 * i) ~mean
  let weighted b i w = Weighted.draw_at w b (8 * i)
end

