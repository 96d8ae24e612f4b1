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
  if c.relay_count < 1 then Error "relay_count must be positive"
  else if c.bottleneck_distance < 1 || c.bottleneck_distance > c.relay_count then
    Error "bottleneck_distance must be in [1, relay_count]"
  else if c.transfer_bytes <= 0 then Error "transfer_bytes must be positive"
  else if Engine.Time.(c.horizon <= Engine.Time.zero) then Error "horizon must be positive"
  else
    match Circuitstart.Params.validate c.params with
    | Ok _ -> Ok c
    | Error msg -> Error msg

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

(* Re-base a trace to the transfer start and extend the last value so
   the step function is well-defined over the whole window. *)
let rebase ~start points =
  Array.of_list
    (List.filter_map
       (fun (time, v) ->
         if Engine.Time.(time < start) then None
         else Some (Engine.Time.diff time start, v))
       (Array.to_list points))

let run ?(seed = 42) config =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Trace_experiment.run: " ^ msg)
  in
  ignore (Engine.Rng.create seed : Engine.Rng.t);
  let sim = Engine.Sim.create () in
  let b = Tor_net.builder sim ~queue:config.link_queue () in
  let relay_specs =
    List.init config.relay_count (fun i ->
        let rate =
          if i + 1 = config.bottleneck_distance then config.bottleneck_rate
          else config.fast_rate
        in
        { Relay_gen.nickname = Printf.sprintf "relay%d" i; bandwidth = rate;
          latency = config.access_delay;
          flags =
            [ Tor_model.Relay_info.Guard; Tor_model.Relay_info.Exit;
              Tor_model.Relay_info.Fast; Tor_model.Relay_info.Stable ] })
  in
  List.iter (Tor_net.add_relay b) relay_specs;
  let client =
    Tor_net.add_endpoint b ~name:"client" ~rate:config.endpoint_rate
      ~delay:config.access_delay
  in
  let server =
    Tor_net.add_endpoint b ~name:"server" ~rate:config.endpoint_rate
      ~delay:config.access_delay
  in
  let net = Tor_net.finalize b in
  let relays = Tor_model.Directory.relays (Tor_net.directory net) in
  let circuit =
    Tor_model.Circuit.make
      ~id:(Tor_model.Circuit_id.next (Tor_net.circuit_ids net))
      ~client ~relays ~server
  in
  let path = Tor_net.path_model net circuit in
  let trace = Engine.Trace.create () in
  let established_at = ref None in
  let transfer = ref None in
  Tor_model.Circuit_builder.build
    (Tor_net.switchboard net client)
    circuit
    ~on_done:(fun outcome ->
      match outcome with
      | Tor_model.Circuit_builder.Failed msg ->
          failwith ("Trace_experiment: circuit establishment failed: " ^ msg)
      | Tor_model.Circuit_builder.Refused _ ->
          (* No budgets are set in this experiment, so a refusal is a bug. *)
          failwith "Trace_experiment: circuit establishment refused"
      | Tor_model.Circuit_builder.Established { at } ->
          established_at := Some at;
          let d =
            Backtap.Transfer.deploy
              ~node_of:(Tor_net.backtap_node net)
              ~circuit ~bytes:config.transfer_bytes ~strategy:config.strategy
              ~params:config.params ~trace:(trace, "trace")
              ~on_complete:(fun _ -> Engine.Sim.stop sim)
              ()
          in
          Backtap.Transfer.trace_cwnd d (trace, "trace");
          transfer := Some d;
          Backtap.Transfer.start d)
    ();
  Engine.Sim.run sim ~until:config.horizon;
  let d =
    match !transfer with
    | Some d -> d
    | None -> failwith "Trace_experiment: transfer never started"
  in
  let started =
    match Backtap.Transfer.first_sent_at d with Some t -> t | None -> assert false
  in
  let hops = Tor_model.Circuit.hop_count circuit in
  let hop_series =
    List.init hops (fun i ->
        match Engine.Trace.find trace (Printf.sprintf "trace/cwnd/%d" i) with
        | Some ts -> rebase ~start:started (Engine.Timeseries.points ts)
        | None -> [||])
  in
  let source_cwnd = List.nth hop_series 0 in
  let source_sender =
    match Backtap.Transfer.sender_at d 0 with Some s -> s | None -> assert false
  in
  let peak_cells =
    Array.fold_left (fun acc (_, v) -> Float.max acc v) 0. source_cwnd
  in
  let settled_cells =
    float_of_int (Circuitstart.Controller.cwnd (Backtap.Hop_sender.controller source_sender))
  in
  {
    source_cwnd;
    hop_cwnds = hop_series;
    optimal_source_cells = Optmodel.Optimal_window.source_window_cells path;
    propagated_cells = Optmodel.Optimal_window.propagated_estimate_cells path;
    peak_cells;
    settled_cells;
    exit_cells =
      Circuitstart.Controller.exit_cwnd (Backtap.Hop_sender.controller source_sender);
    time_to_last_byte = Backtap.Transfer.time_to_last_byte d;
    transfer_started_at = started;
    circuit_established_in =
      (match !established_at with Some t -> t | None -> assert false);
    retransmissions = Backtap.Transfer.total_retransmissions d;
    wall_events = Engine.Sim.events_executed sim;
  }

let run_many ?jobs ?seed configs =
  Engine.Pool.map_list ?jobs (fun config -> run ?seed config) configs
