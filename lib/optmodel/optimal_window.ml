let default_cell_size = 520
let default_feedback_size = 43

let bottleneck_rate path =
  match Path_model.rates path with
  | [] -> assert false
  | r :: rest -> List.fold_left Engine.Units.Rate.min r rest

let bottleneck_position path =
  let n = Path_model.node_count path in
  let best = ref 0 in
  for i = 1 to n - 1 do
    if
      Engine.Units.Rate.compare (Path_model.spec path i).rate
        (Path_model.spec path !best).rate
      < 0
    then best := i
  done;
  !best

let hop_feedback_rtt ?(cell_size = default_cell_size)
    ?(feedback_size = default_feedback_size) path i =
  if i < 0 || i >= Path_model.hop_count path then
    invalid_arg "Optimal_window.hop_feedback_rtt: hop out of range";
  let a = Path_model.spec path i and b = Path_model.spec path (i + 1) in
  let tx rate size = Engine.Units.Rate.transmission_time rate size in
  let open Engine.Time in
  (* Data out: a's uplink, b's downlink; feedback back: b's uplink, a's
     downlink.  Each direction crosses both access propagation delays. *)
  add
    (add (tx a.rate cell_size) (tx b.rate cell_size))
    (add
       (add (tx b.rate feedback_size) (tx a.rate feedback_size))
       (mul_int (add a.access_delay b.access_delay) 2))

let hop_window_cells ?cell_size ?feedback_size path i =
  let cell = Option.value cell_size ~default:default_cell_size in
  let rtt = hop_feedback_rtt ?cell_size ?feedback_size path i in
  let b = bottleneck_rate path in
  let bdp = Engine.Units.Rate.to_bytes_per_sec b *. Engine.Time.to_sec_f rtt in
  Stdlib.max 1 (int_of_float (Float.ceil (bdp /. float_of_int cell)))

let source_window_cells ?cell_size ?feedback_size path =
  hop_window_cells ?cell_size ?feedback_size path 0

let propagated_estimate_cells ?cell_size ?feedback_size path =
  let hops = Path_model.hop_count path in
  let rec go i best =
    if i >= hops then best
    else go (i + 1) (Stdlib.min best (hop_window_cells ?cell_size ?feedback_size path i))
  in
  go 1 (hop_window_cells ?cell_size ?feedback_size path 0)
