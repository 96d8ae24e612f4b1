type point = float * float
type t = point array

let resampled ts ~step ~stop ~x_of ~y_of =
  Array.map (fun (time, v) -> (x_of time, y_of v)) (Engine.Timeseries.resample ts ~step ~stop)

let ms_of_time = Engine.Time.to_ms_f
let kb_of_cells ~cell_size cells = cells *. float_of_int cell_size /. 1000.

let constant ~x_max ~step y =
  if not (Float.is_finite step) || step <= 0. then
    invalid_arg "Series.constant: step must be positive";
  if not (Float.is_finite x_max) || x_max < 0. then
    invalid_arg "Series.constant: x_max must be non-negative";
  let n = int_of_float (x_max /. step) + 1 in
  Array.init n (fun i -> (float_of_int i *. step, y))

let y_max t = Array.fold_left (fun acc (_, y) -> Float.max acc y) 0. t
