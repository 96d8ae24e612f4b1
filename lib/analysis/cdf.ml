type t = { sorted : float array }

let of_samples samples =
  if Array.length samples = 0 then invalid_arg "Cdf.of_samples: empty";
  Array.iter
    (fun x -> if not (Float.is_finite x) then invalid_arg "Cdf.of_samples: non-finite")
    samples;
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  { sorted }

(* A sketch answers quantiles directly, so a CDF over it is the curve
   through [resolution] evenly spaced quantiles plus the exact observed
   extremes — enough structure for [quantile]/[horizontal_gap]/
   [dominates] (which only ever probe the 99-point grid) while keeping
   the streamed run's O(1)-per-circuit memory. *)
let of_sketch ?(resolution = 199) sk =
  if resolution < 1 then invalid_arg "Cdf.of_sketch: resolution must be positive";
  if Engine.Stats.Sketch.count sk = 0 then invalid_arg "Cdf.of_sketch: empty sketch";
  let qs =
    Array.init resolution (fun i ->
        Engine.Stats.Sketch.quantile sk
          (float_of_int (i + 1) /. float_of_int (resolution + 1)))
  in
  let sorted =
    Array.concat
      [ [| Engine.Stats.Sketch.min sk |]; qs; [| Engine.Stats.Sketch.max sk |] ]
  in
  Array.sort Float.compare sorted;
  { sorted }

let of_sketch_opt ?resolution sk =
  if Engine.Stats.Sketch.count sk = 0 then None
  else Some (of_sketch ?resolution sk)

let count t = Array.length t.sorted

let quantile t q =
  if not (Float.is_finite q) || q < 0. || q > 1. then
    invalid_arg "Cdf.quantile: q must be in [0, 1]";
  let n = count t in
  let k = int_of_float (Float.ceil (q *. float_of_int n)) in
  t.sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (k - 1)))

let points t =
  let n = count t in
  let nf = float_of_int n in
  let rec go i acc =
    if i < 0 then acc
    else if i < n - 1 && Float.equal t.sorted.(i) t.sorted.(i + 1) then go (i - 1) acc
    else go (i - 1) ((t.sorted.(i), float_of_int (i + 1) /. nf) :: acc)
  in
  go (n - 1) []


let grid = Array.init 99 (fun i -> float_of_int (i + 1) /. 100.)

let horizontal_gap ~better ~worse =
  Array.fold_left
    (fun acc q -> Float.max acc (quantile worse q -. quantile better q))
    Float.neg_infinity grid

let dominates ~better ~worse =
  Array.for_all (fun q -> quantile better q <= quantile worse q) grid
