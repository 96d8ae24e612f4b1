type spec = {
  nickname : string;
  bandwidth : Engine.Units.Rate.t;
  latency : Engine.Time.t;
  flags : Tor_model.Relay_info.flag list;
}

type config = {
  bandwidth_median_mbit : float;
  bandwidth_sigma : float;
  bandwidth_min_mbit : float;
  bandwidth_max_mbit : float;
  latency_min : Engine.Time.t;
  latency_max : Engine.Time.t;
  exit_fraction : float;
}

let default_config =
  {
    bandwidth_median_mbit = 10.;
    bandwidth_sigma = 0.75;
    bandwidth_min_mbit = 1.;
    bandwidth_max_mbit = 100.;
    latency_min = Engine.Time.ms 5;
    latency_max = Engine.Time.ms 15;
    exit_fraction = 0.34;
  }

let validate_config c =
  if c.bandwidth_median_mbit <= 0. then Error "bandwidth_median_mbit must be positive"
  else if c.bandwidth_sigma < 0. then Error "bandwidth_sigma must be non-negative"
  else if c.bandwidth_min_mbit <= 0. then Error "bandwidth_min_mbit must be positive"
  else if c.bandwidth_max_mbit < c.bandwidth_min_mbit then
    Error "bandwidth_max_mbit below bandwidth_min_mbit"
  else if Engine.Time.(c.latency_max < c.latency_min) then
    Error "latency_max below latency_min"
  else if c.exit_fraction <= 0. || c.exit_fraction > 1. then
    Error "exit_fraction must be in (0, 1]"
  else Ok c

type population = {
  bandwidths : Engine.Units.Rate.t array;
  latencies : Engine.Time.t array;
  is_exit : bool array;
}

let check_args fn config ~n =
  (match validate_config config with
  | Ok _ -> ()
  | Error msg -> invalid_arg (fn ^ ": " ^ msg));
  if n <= 0 then invalid_arg (fn ^ ": n must be positive")

(* Per relay, in id order: two uniforms for the log-normal bandwidth,
   then one for the latency unless the latency range is a point. *)
let population rng config ~n =
  (* For a log-normal, exp(mu) is the median. *)
  let mu = Float.log config.bandwidth_median_mbit in
  let exit_every = Stdlib.max 1 (int_of_float (Float.round (1. /. config.exit_fraction))) in
  let lat_lo = (config.latency_min :> int) in
  let lat_hi = (config.latency_max :> int) in
  let bandwidths = Array.make n (Engine.Units.Rate.bps 1) in
  let latencies = Array.make n config.latency_min in
  let is_exit = Array.make n false in
  for i = 0 to n - 1 do
    let mbit =
      Engine.Rng.lognormal rng ~mu ~sigma:config.bandwidth_sigma
      |> Float.max config.bandwidth_min_mbit
      |> Float.min config.bandwidth_max_mbit
    in
    bandwidths.(i) <- Engine.Units.Rate.mbit_f mbit;
    if lat_lo <> lat_hi then
      latencies.(i) <-
        Engine.Time.ns
          (lat_lo + int_of_float (Engine.Rng.float rng (float_of_int (lat_hi - lat_lo))));
    is_exit.(i) <- i mod exit_every = 0
  done;
  { bandwidths; latencies; is_exit }

let draw rng config ~n =
  check_args "Relay_gen.draw" config ~n;
  population rng config ~n

let generate rng config ~n =
  check_args "Relay_gen.generate" config ~n;
  let pop = population rng config ~n in
  let base = Tor_model.Relay_info.[ Guard; Fast; Stable ] in
  List.init n (fun i ->
      { nickname = Printf.sprintf "relay%02d" i;
        bandwidth = pop.bandwidths.(i);
        latency = pop.latencies.(i);
        flags = (if pop.is_exit.(i) then Tor_model.Relay_info.Exit :: base else base) })
