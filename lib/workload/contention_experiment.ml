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
  cbr_load : float;
  horizon : Engine.Time.t;
}

let default_config =
  {
    relay_count = 3;
    bottleneck_distance = 2;
    bottleneck_rate = Engine.Units.Rate.mbit 4;
    fast_rate = Engine.Units.Rate.mbit 50;
    access_delay = Engine.Time.ms 10;
    endpoint_rate = Engine.Units.Rate.mbit 100;
    transfer_bytes = Engine.Units.mib 4;
    strategy = Circuitstart.Controller.Circuit_start;
    params = Circuitstart.Params.default;
    cbr_load = 0.25;
    horizon = Engine.Time.s 30;
  }

let validate_config c =
  if c.relay_count < 1 then Error "relay_count must be positive"
  else if c.bottleneck_distance < 1 || c.bottleneck_distance > c.relay_count then
    Error "bottleneck_distance out of range"
  else if c.transfer_bytes <= 0 then Error "transfer_bytes must be positive"
  else if not (Float.is_finite c.cbr_load) || c.cbr_load < 0. || c.cbr_load > 0.9 then
    Error "cbr_load must be in [0, 0.9]"
  else if Engine.Time.(c.horizon <= Engine.Time.zero) then Error "horizon must be positive"
  else
    match Circuitstart.Params.validate c.params with
    | Ok _ -> Ok c
    | Error msg -> Error msg

type result = {
  optimal_cells : int;
  expected_cells : float;
  settled_cells : float;
  time_to_last_byte : Engine.Time.t option;
  cbr_packets : int;
  goodput_share : float option;
  wall_events : int;
}

let run ?(seed = 5) config =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Contention_experiment.run: " ^ msg)
  in
  ignore (Engine.Rng.create seed : Engine.Rng.t);
  let sim = Engine.Sim.create () in
  let b = Tor_net.builder sim () in
  List.iteri
    (fun i () ->
      let rate =
        if i + 1 = config.bottleneck_distance then config.bottleneck_rate
        else config.fast_rate
      in
      Tor_net.add_relay b
        { Relay_gen.nickname = Printf.sprintf "relay%d" i; bandwidth = rate;
          latency = config.access_delay;
          flags =
            [ Tor_model.Relay_info.Guard; Tor_model.Relay_info.Exit;
              Tor_model.Relay_info.Fast; Tor_model.Relay_info.Stable ] })
    (List.init config.relay_count (fun _ -> ()));
  let client =
    Tor_net.add_endpoint b ~name:"client" ~rate:config.endpoint_rate
      ~delay:config.access_delay
  in
  let server =
    Tor_net.add_endpoint b ~name:"server" ~rate:config.endpoint_rate
      ~delay:config.access_delay
  in
  (* A dedicated sink leaf absorbs the background traffic. *)
  let cbr_sink =
    Tor_net.add_endpoint b ~name:"cbr-sink" ~rate:config.endpoint_rate
      ~delay:config.access_delay
  in
  let net = Tor_net.finalize b in
  (* The sink leaf plays no Tor role: repurpose its aux slot so the CBR
     packets are absorbed instead of counting as orphans. *)
  Tor_model.Switchboard.set_aux_handler (Tor_net.switchboard net cbr_sink) (fun _ -> ());
  let relays = Tor_model.Directory.relays (Tor_net.directory net) in
  let bottleneck_node =
    (List.nth relays (config.bottleneck_distance - 1)).Tor_model.Relay_info.node
  in
  let circuit =
    Tor_model.Circuit.make
      ~id:(Tor_model.Circuit_id.next (Tor_net.circuit_ids net))
      ~client ~relays ~server
  in
  let path = Tor_net.path_model net circuit in
  let optimal = Optmodel.Optimal_window.source_window_cells path in
  (* Background load: emitted *from* the bottleneck relay (as if it
     served other circuits), crossing exactly its uplink. *)
  let cbr =
    if config.cbr_load > 0. then
      Some
        (Netsim.Cbr_source.start (Tor_net.network net) ~src:bottleneck_node ~dst:cbr_sink
           ~rate:(Engine.Units.Rate.scale config.bottleneck_rate config.cbr_load)
           ())
    else None
  in
  let transfer = ref None in
  Tor_model.Circuit_builder.build
    (Tor_net.switchboard net client)
    circuit
    ~on_done:(fun outcome ->
      match outcome with
      | Tor_model.Circuit_builder.Failed msg ->
          failwith ("Contention_experiment: establishment failed: " ^ msg)
      | Tor_model.Circuit_builder.Refused _ ->
          (* No budgets are set in this experiment, so a refusal is a bug. *)
          failwith "Contention_experiment: establishment refused"
      | Tor_model.Circuit_builder.Established _ ->
          let d =
            Backtap.Transfer.deploy
              ~node_of:(Tor_net.backtap_node net)
              ~circuit ~bytes:config.transfer_bytes ~strategy:config.strategy
              ~params:config.params
              ~on_complete:(fun _ -> Engine.Sim.stop sim)
              ()
          in
          transfer := Some d;
          Backtap.Transfer.start d)
    ();
  Engine.Sim.run sim ~until:config.horizon;
  let d =
    match !transfer with
    | Some d -> d
    | None -> failwith "Contention_experiment: transfer never started"
  in
  let settled =
    match Backtap.Transfer.sender_at d 0 with
    | Some s -> float_of_int (Circuitstart.Controller.cwnd (Backtap.Hop_sender.controller s))
    | None -> nan
  in
  let ttlb = Backtap.Transfer.time_to_last_byte d in
  let goodput_share =
    Option.map
      (fun t ->
        let goodput = float_of_int config.transfer_bytes /. Engine.Time.to_sec_f t in
        goodput /. Engine.Units.Rate.to_bytes_per_sec config.bottleneck_rate)
      ttlb
  in
  {
    optimal_cells = optimal;
    expected_cells = (1. -. config.cbr_load) *. float_of_int optimal;
    settled_cells = settled;
    time_to_last_byte = ttlb;
    cbr_packets = (match cbr with Some c -> Netsim.Cbr_source.packets_sent c | None -> 0);
    goodput_share;
    wall_events = Engine.Sim.events_executed sim;
  }

let run_many ?jobs ?seed configs =
  Engine.Pool.map_list ?jobs (fun config -> run ?seed config) configs
