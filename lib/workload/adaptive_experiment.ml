type config = {
  relay_count : int;
  bottleneck_distance : int;
  bottleneck_rate : Engine.Units.Rate.t;
  stepped_rate : Engine.Units.Rate.t;
  fast_rate : Engine.Units.Rate.t;
  access_delay : Engine.Time.t;
  endpoint_rate : Engine.Units.Rate.t;
  step_after : Engine.Time.t;
  transfer_bytes : int;
  adaptive : bool;
  params : Circuitstart.Params.t;
  target_fraction : float;
  horizon : Engine.Time.t;
}

let default_config =
  {
    relay_count = 3;
    bottleneck_distance = 2;
    bottleneck_rate = Engine.Units.Rate.mbit 3;
    stepped_rate = Engine.Units.Rate.mbit 12;
    fast_rate = Engine.Units.Rate.mbit 50;
    access_delay = Engine.Time.ms 10;
    endpoint_rate = Engine.Units.Rate.mbit 100;
    step_after = Engine.Time.s 2;
    transfer_bytes = Engine.Units.mib 8;
    adaptive = true;
    params = Circuitstart.Params.default;
    target_fraction = 0.7;
    horizon = Engine.Time.s 20;
  }

let validate_config c =
  if c.relay_count < 1 then Error "relay_count must be positive"
  else if c.bottleneck_distance < 1 || c.bottleneck_distance > c.relay_count then
    Error "bottleneck_distance out of range"
  else if c.transfer_bytes <= 0 then Error "transfer_bytes must be positive"
  else if c.target_fraction <= 0. || c.target_fraction > 1. then
    Error "target_fraction must be in (0, 1]"
  else if Engine.Time.(c.step_after <= Engine.Time.zero) then
    Error "step_after must be positive"
  else if Engine.Time.(c.horizon <= c.step_after) then
    Error "horizon must exceed step_after"
  else
    match Circuitstart.Params.validate c.params with
    | Ok _ -> Ok c
    | Error msg -> Error msg

type result = {
  optimal_before_cells : int;
  optimal_after_cells : int;
  cwnd_at_step : float;
  reaction_time : Engine.Time.t option;
  final_cwnd : float;
  source_cwnd : (Engine.Time.t * float) array;
  wall_events : int;
}

let run ?(seed = 7) config =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Adaptive_experiment.run: " ^ msg)
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
  let net = Tor_net.finalize b in
  let relays = Tor_model.Directory.relays (Tor_net.directory net) in
  let circuit =
    Tor_model.Circuit.make
      ~id:(Tor_model.Circuit_id.next (Tor_net.circuit_ids net))
      ~client ~relays ~server
  in
  let params =
    { config.params with
      Circuitstart.Params.adaptive = config.adaptive;
      re_probe_after = (if config.adaptive then 3 else config.params.re_probe_after);
    }
  in
  (* Analytic optima before and after the step. *)
  let path_with rate =
    Optmodel.Path_model.of_specs
      (List.map
         (fun node ->
           let spec = Tor_net.access_spec net node in
           let bneck =
             (List.nth relays (config.bottleneck_distance - 1)).Tor_model.Relay_info.node
           in
           if Netsim.Node_id.equal node bneck then
             { spec with Optmodel.Path_model.rate }
           else spec)
         (Tor_model.Circuit.nodes circuit))
  in
  let optimal_before =
    Optmodel.Optimal_window.source_window_cells (path_with config.bottleneck_rate)
  in
  let optimal_after =
    Optmodel.Optimal_window.source_window_cells (path_with config.stepped_rate)
  in
  let trace = Engine.Trace.create () in
  let transfer = ref None in
  let step_time = ref None in
  Tor_model.Circuit_builder.build
    (Tor_net.switchboard net client)
    circuit
    ~on_done:(fun outcome ->
      match outcome with
      | Tor_model.Circuit_builder.Failed msg ->
          failwith ("Adaptive_experiment: establishment failed: " ^ msg)
      | Tor_model.Circuit_builder.Refused _ ->
          (* No budgets are set in this experiment, so a refusal is a bug. *)
          failwith "Adaptive_experiment: establishment refused"
      | Tor_model.Circuit_builder.Established _ ->
          let d =
            Backtap.Transfer.deploy
              ~node_of:(Tor_net.backtap_node net)
              ~circuit ~bytes:config.transfer_bytes
              ~strategy:Circuitstart.Controller.Circuit_start ~params
              ~trace:(trace, "adaptive") ()
          in
          Backtap.Transfer.trace_cwnd d (trace, "adaptive");
          transfer := Some d;
          Backtap.Transfer.start d;
          (* Raise the bottleneck's access links (both directions) at
             the configured instant. *)
          ignore
            (Engine.Sim.schedule_after sim config.step_after (fun () ->
                 step_time := Some (Engine.Sim.now sim);
                 let bneck =
                   (List.nth relays (config.bottleneck_distance - 1))
                     .Tor_model.Relay_info.node
                 in
                 let topo = Netsim.Network.topology (Tor_net.network net) in
                 let hub = Tor_net.hub net in
                 List.iter
                   (fun (a, b2) ->
                     match Netsim.Topology.link topo a b2 with
                     | Some l -> Netsim.Link.set_rate l config.stepped_rate
                     | None -> assert false)
                   [ (bneck, hub); (hub, bneck) ])))
    ();
  Engine.Sim.run sim ~until:config.horizon;
  let d =
    match !transfer with
    | Some d -> d
    | None -> failwith "Adaptive_experiment: transfer never started"
  in
  let started =
    match Backtap.Transfer.first_sent_at d with Some t -> t | None -> assert false
  in
  let series =
    match Engine.Trace.find trace "adaptive/cwnd/0" with
    | Some ts -> Engine.Timeseries.points ts
    | None -> [||]
  in
  let stepped =
    match !step_time with Some t -> t | None -> failwith "step never fired"
  in
  let cwnd_at_step =
    Array.fold_left
      (fun acc (time, v) -> if Engine.Time.(time <= stepped) then v else acc)
      (float_of_int params.Circuitstart.Params.initial_cwnd)
      series
  in
  let target = config.target_fraction *. float_of_int optimal_after in
  let reaction_time =
    Array.fold_left
      (fun acc (time, v) ->
        match acc with
        | Some _ -> acc
        | None ->
            if Engine.Time.(time > stepped) && v >= target then
              Some (Engine.Time.diff time stepped)
            else None)
      None series
  in
  let final_cwnd =
    match Array.length series with 0 -> nan | n -> snd series.(n - 1)
  in
  {
    optimal_before_cells = optimal_before;
    optimal_after_cells = optimal_after;
    cwnd_at_step;
    reaction_time;
    final_cwnd;
    source_cwnd =
      Array.of_list
        (List.filter_map
           (fun (time, v) ->
             if Engine.Time.(time < started) then None
             else Some (Engine.Time.diff time started, v))
           (Array.to_list series));
    wall_events = Engine.Sim.events_executed sim;
  }

let run_many ?jobs ?seed configs =
  Engine.Pool.map_list ?jobs (fun config -> run ?seed config) configs
