type config = {
  relay_count : int;
  bottleneck_distance : int;
  bottleneck_rate : Engine.Units.Rate.t;
  fast_rate : Engine.Units.Rate.t;
  access_delay : Engine.Time.t;
  endpoint_rate : Engine.Units.Rate.t;
  transfer_bytes : int;
  strategy : Circuitstart.Controller.strategy;
  params : Circuitstart.Params.t;
  link_queue : Netsim.Nqueue.capacity;
  horizon : Engine.Time.t;
}

let default_config =
  {
    relay_count = 3;
    bottleneck_distance = 1;
    bottleneck_rate = Engine.Units.Rate.mbit 3;
    fast_rate = Engine.Units.Rate.mbit 50;
    access_delay = Engine.Time.ms 10;
    endpoint_rate = Engine.Units.Rate.mbit 100;
    transfer_bytes = Engine.Units.mib 1;
    strategy = Circuitstart.Controller.Circuit_start;
    params = Circuitstart.Params.default;
    link_queue = Netsim.Nqueue.unbounded;
    horizon = Engine.Time.s 10;
  }

let validate_config c =
  Line_world.validate ~relay_count:c.relay_count
    ~bottleneck_distance:c.bottleneck_distance ~transfer_bytes:c.transfer_bytes
    ~horizon:c.horizon c.params
  |> Result.map (fun () -> c)

type result = {
  source_cwnd : (Engine.Time.t * float) array;
  hop_cwnds : (Engine.Time.t * float) array list;
  optimal_source_cells : int;
  propagated_cells : int;
  peak_cells : float;
  settled_cells : float;
  exit_cells : int option;
  time_to_last_byte : Engine.Time.t option;
  transfer_started_at : Engine.Time.t;
  circuit_established_in : Engine.Time.t;
  retransmissions : int;
  wall_events : int;
}

let run config =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Trace_experiment.run: " ^ msg)
  in
  let w =
    Line_world.create ~queue:config.link_queue ~relay_count:config.relay_count
      ~bottleneck_distance:config.bottleneck_distance
      ~bottleneck_rate:config.bottleneck_rate ~fast_rate:config.fast_rate
      ~access_delay:config.access_delay ~endpoint_rate:config.endpoint_rate ()
  in
  let trace = Engine.Trace.create () in
  let r =
    Line_world.run w ~horizon:config.horizon (fun () ->
        let d =
          Backtap.Transfer.deploy
            ~node_of:(Tor_net.backtap_node w.net)
            ~circuit:w.circuit ~bytes:config.transfer_bytes ~strategy:config.strategy
            ~params:config.params ~trace:(trace, "trace")
            ~on_complete:(fun _ -> Engine.Sim.stop w.sim)
            ()
        in
        Backtap.Transfer.trace_cwnd d (trace, "trace");
        Backtap.Transfer.start d;
        d)
  in
  let d = r.transfer in
  let hop_series =
    List.init (Tor_model.Circuit.hop_count w.circuit) (fun hop ->
        Line_world.rebase ~start:r.started_at (Line_world.cwnd_points trace "trace" ~hop))
  in
  let source_cwnd = List.hd hop_series in
  let source =
    Backtap.Hop_sender.controller (Option.get (Backtap.Transfer.sender_at d 0))
  in
  let path = Tor_net.path_model w.net w.circuit in
  {
    source_cwnd;
    hop_cwnds = hop_series;
    optimal_source_cells = Optmodel.Optimal_window.source_window_cells path;
    propagated_cells = Optmodel.Optimal_window.propagated_estimate_cells path;
    peak_cells = Array.fold_left (fun acc (_, v) -> Float.max acc v) 0. source_cwnd;
    settled_cells = float_of_int (Circuitstart.Controller.cwnd source);
    exit_cells = Circuitstart.Controller.exit_cwnd source;
    time_to_last_byte = Backtap.Transfer.time_to_last_byte d;
    transfer_started_at = r.started_at;
    circuit_established_in = r.established_in;
    retransmissions = Backtap.Transfer.total_retransmissions d;
    wall_events = Engine.Sim.events_executed w.sim;
  }

let run_many ?jobs configs = Engine.Pool.map_list ?jobs run configs
