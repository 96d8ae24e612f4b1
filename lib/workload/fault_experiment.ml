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
  loss : Netsim.Faults.loss_model option;
  outage : (Engine.Time.t * Engine.Time.t) option;
  crash_at : Engine.Time.t option;
  rto_min : Engine.Time.t;
  rto_initial : Engine.Time.t;
  max_retries : int;
  horizon : Engine.Time.t;
}

let default_config =
  {
    relay_count = 3;
    bottleneck_distance = 2;
    bottleneck_rate = Engine.Units.Rate.mbit 3;
    fast_rate = Engine.Units.Rate.mbit 50;
    access_delay = Engine.Time.ms 10;
    endpoint_rate = Engine.Units.Rate.mbit 100;
    transfer_bytes = Engine.Units.kib 512;
    strategy = Circuitstart.Controller.Circuit_start;
    params = Circuitstart.Params.default;
    link_queue = Netsim.Nqueue.unbounded;
    loss = None;
    outage = None;
    crash_at = None;
    rto_min = Engine.Time.ms 300;
    rto_initial = Engine.Time.ms 500;
    max_retries = 4;
    horizon = Engine.Time.s 60;
  }

let validate_config c =
  if c.relay_count < 1 then Error "relay_count must be positive"
  else if c.bottleneck_distance < 1 || c.bottleneck_distance > c.relay_count then
    Error "bottleneck_distance must be in [1, relay_count]"
  else if c.transfer_bytes <= 0 then Error "transfer_bytes must be positive"
  else if c.max_retries < 1 then Error "max_retries must be positive"
  else if Engine.Time.(c.horizon <= Engine.Time.zero) then Error "horizon must be positive"
  else
    match
      ( Option.map Netsim.Faults.validate_loss c.loss,
        c.outage,
        Circuitstart.Params.validate c.params )
    with
    | Some (Error msg), _, _ -> Error msg
    | _, Some (down, up), _ when Engine.Time.(up <= down) ->
        Error "outage window must have up_at > down_at"
    | _, _, Error msg -> Error msg
    | _, _, Ok _ -> Ok c

type outcome = Completed | Failed_circuit | Timed_out

type result = {
  outcome : outcome;
  time_to_last_byte : Engine.Time.t option;
  failed_after : Engine.Time.t option;
  failed_hop : int option;
  goodput_bps : float;
  received_bytes : int;
  retransmissions : int;
  drops : Netsim.Link.drop_counts;
  queue_high_watermark_bytes : int;
  blackholed_cells : int;
  circuit_established_in : Engine.Time.t;
  transfer_started_at : Engine.Time.t;
  events : Engine.Trace.event list;
  wall_events : int;
}

let outcome_to_string = function
  | Completed -> "completed"
  | Failed_circuit -> "failed"
  | Timed_out -> "timed-out"

(* The disturbance target is the bottleneck relay: its access link
   carries every cell of the circuit in both directions (star
   topology), so loss and outages there stress the transport exactly
   where the window should be sized, and a crash there kills the
   circuit mid-path. *)
let run ?(seed = 42) ?probe config =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Fault_experiment.run: " ^ msg)
  in
  let rng = Engine.Rng.create seed in
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
  let bottleneck =
    (List.nth relays (config.bottleneck_distance - 1)).Tor_model.Relay_info.node
  in
  let topo = Netsim.Network.topology (Tor_net.network net) in
  let hub = Tor_net.hub net in
  let bottleneck_links =
    List.filter_map
      (fun (a, z) -> Netsim.Topology.link topo a z)
      [ (bottleneck, hub); (hub, bottleneck) ]
  in
  let trace = Engine.Trace.create () in
  let established_at = ref None in
  let transfer = ref None in
  (* Faults are armed at transfer start, not at time zero: circuit
     establishment has no retransmission machinery, so a lost CREATE
     would hang the run before the transport under test ever runs.
     [outage] and [crash_at] are offsets from the same instant. *)
  let arm_faults () =
    let now = Engine.Sim.now sim in
    (match config.loss with
    | Some model ->
        List.iter
          (fun link ->
            Netsim.Faults.attach_loss ~rng:(Engine.Rng.split rng) link model)
          bottleneck_links
    | None -> ());
    (match config.outage with
    | Some (down, up) ->
        List.iter
          (fun link ->
            Netsim.Faults.schedule_outage ~trace sim link
              ~down_at:(Engine.Time.add now down) ~up_at:(Engine.Time.add now up))
          bottleneck_links
    | None -> ());
    match config.crash_at with
    | Some after ->
        ignore @@
        Engine.Sim.schedule_at sim (Engine.Time.add now after) (fun () ->
            Engine.Trace.record_event trace Engine.Trace.Fault
              ~subject:(Format.asprintf "relay/%a" Netsim.Node_id.pp bottleneck)
              ~detail:"crash" (Engine.Sim.now sim);
            Tor_model.Relay_ctl.crash (Tor_net.relay_ctl net bottleneck))
    | None -> ()
  in
  Tor_model.Circuit_builder.build
    (Tor_net.switchboard net client)
    circuit
    ~on_done:(fun outcome ->
      match outcome with
      | Tor_model.Circuit_builder.Failed msg ->
          failwith ("Fault_experiment: circuit establishment failed: " ^ msg)
      | Tor_model.Circuit_builder.Refused _ | Tor_model.Circuit_builder.Gone _ ->
          (* No budgets are set in this experiment, so a refusal is a bug. *)
          failwith "Fault_experiment: circuit establishment refused"
      | Tor_model.Circuit_builder.Established { at } ->
          established_at := Some at;
          let d =
            Backtap.Transfer.deploy
              ~node_of:(Tor_net.backtap_node net)
              ~circuit ~bytes:config.transfer_bytes ~strategy:config.strategy
              ~params:config.params ~trace:(trace, "transfer")
              ~rto_min:config.rto_min ~rto_initial:config.rto_initial
              ~max_retries:config.max_retries
              ~on_complete:(fun _ -> Engine.Sim.stop sim)
              ~on_fail:(fun _ -> Engine.Sim.stop sim)
              ()
          in
          transfer := Some d;
          (* Let the invariant oracles attach before the first cell
             moves.  Probes are passive observers: an instrumented run
             must stay schedule-identical to a plain one. *)
          (match probe with
          | Some f -> f sim (Netsim.Topology.links topo) d
          | None -> ());
          arm_faults ();
          Backtap.Transfer.start d)
    ();
  Engine.Sim.run sim ~until:config.horizon;
  let d =
    match !transfer with
    | Some d -> d
    | None -> failwith "Fault_experiment: transfer never started"
  in
  let started =
    match Backtap.Transfer.first_sent_at d with Some t -> t | None -> assert false
  in
  let outcome =
    match Backtap.Transfer.state d with
    | Backtap.Transfer.Completed -> Completed
    | Backtap.Transfer.Failed -> Failed_circuit
    | Backtap.Transfer.Running -> Timed_out
  in
  let received = Tor_model.Stream.Sink.received_bytes (Backtap.Transfer.sink d) in
  let end_at =
    match (Backtap.Transfer.completed_at d, Backtap.Transfer.failed_at d) with
    | Some t, _ | None, Some t -> t
    | None, None -> Engine.Sim.now sim
  in
  let elapsed_s = Engine.Time.to_sec_f (Engine.Time.diff end_at started) in
  {
    outcome;
    time_to_last_byte = Backtap.Transfer.time_to_last_byte d;
    failed_after =
      Option.map
        (fun t -> Engine.Time.diff t started)
        (Backtap.Transfer.failed_at d);
    failed_hop = Backtap.Transfer.failed_hop d;
    goodput_bps =
      (if elapsed_s > 0. then float_of_int (8 * received) /. elapsed_s else 0.);
    received_bytes = received;
    retransmissions = Backtap.Transfer.total_retransmissions d;
    drops = Netsim.Flow_monitor.link_drops (Netsim.Topology.links topo);
    queue_high_watermark_bytes =
      Array.fold_left
        (fun acc l -> Stdlib.max acc (Netsim.Link.queue_high_watermark_bytes l))
        0 (Netsim.Topology.links topo);
    blackholed_cells =
      Tor_model.Switchboard.blackholed_cells (Tor_net.switchboard net bottleneck);
    circuit_established_in =
      (match !established_at with Some t -> t | None -> assert false);
    transfer_started_at = started;
    events = Engine.Trace.events trace;
    wall_events = Engine.Sim.events_executed sim;
  }

let run_many ?jobs tasks =
  Engine.Pool.map_list ?jobs (fun (seed, config) -> run ~seed config) tasks

let with_strategy strategy config = { config with strategy }

let pp_result fmt r =
  Format.fprintf fmt "%s" (outcome_to_string r.outcome);
  (match r.time_to_last_byte with
  | Some t -> Format.fprintf fmt ", ttlb %a" Engine.Time.pp t
  | None -> ());
  (match r.failed_after with
  | Some t ->
      Format.fprintf fmt ", failed after %a (hop %s)" Engine.Time.pp t
        (match r.failed_hop with Some h -> string_of_int h | None -> "?")
  | None -> ());
  Format.fprintf fmt ", %.2f Mbit/s goodput, %d retx, drops %a, queue hwm %d B"
    (r.goodput_bps /. 1e6) r.retransmissions Netsim.Link.pp_drop_counts r.drops
    r.queue_high_watermark_bytes
