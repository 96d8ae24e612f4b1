let check xs name =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty");
  Array.iter
    (fun x ->
      if not (Float.is_finite x) || x < 0. then
        invalid_arg (name ^ ": allocations must be finite and non-negative"))
    xs

let jain_index xs =
  check xs "Fairness.jain_index";
  let sum = Array.fold_left ( +. ) 0. xs in
  let sq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
  if sq = 0. then invalid_arg "Fairness.jain_index: all-zero allocation";
  sum *. sum /. (float_of_int (Array.length xs) *. sq)

let throughputs_bytes_per_sec ~bytes_each ttlb_seconds =
  if bytes_each <= 0 then
    invalid_arg "Fairness.throughputs_bytes_per_sec: bytes must be positive";
  Array.map
    (fun t ->
      if not (Float.is_finite t) || t <= 0. then
        invalid_arg "Fairness.throughputs_bytes_per_sec: times must be positive";
      float_of_int bytes_each /. t)
    ttlb_seconds
