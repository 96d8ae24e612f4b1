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
    horizon = Engine.Time.s 60;
  }

(* Tight failure detection, shared with the session world (see the
   interface). *)
let rto_min = Engine.Time.ms 300
let rto_initial = Engine.Time.ms 500
let max_retries = 4

let validate_config c =
  match
    ( Line_world.validate ~relay_count:c.relay_count
        ~bottleneck_distance:c.bottleneck_distance ~transfer_bytes:c.transfer_bytes
        ~horizon:c.horizon c.params,
      Option.map Netsim.Faults.validate_loss c.loss,
      c.outage )
  with
  | Error msg, _, _ | _, Some (Error msg), _ -> Error msg
  | _, _, Some (down, up) when Engine.Time.(up <= down) ->
      Error "outage window must have up_at > down_at"
  | _ -> Ok c

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
  let w =
    Line_world.create ~queue:config.link_queue ~relay_count:config.relay_count
      ~bottleneck_distance:config.bottleneck_distance
      ~bottleneck_rate:config.bottleneck_rate ~fast_rate:config.fast_rate
      ~access_delay:config.access_delay ~endpoint_rate:config.endpoint_rate ()
  in
  let sim = w.sim in
  let links = Netsim.Topology.links (Netsim.Network.topology (Tor_net.network w.net)) in
  let bottleneck_links = Line_world.bottleneck_links w in
  let trace = Engine.Trace.create () in
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
              ~subject:(Format.asprintf "relay/%a" Netsim.Node_id.pp w.bottleneck)
              ~detail:"crash" (Engine.Sim.now sim);
            Tor_model.Relay_ctl.crash (Tor_net.relay_ctl w.net w.bottleneck))
    | None -> ()
  in
  let r =
    Line_world.run w ~horizon:config.horizon (fun () ->
        let d =
          Backtap.Transfer.deploy
            ~node_of:(Tor_net.backtap_node w.net)
            ~circuit:w.circuit ~bytes:config.transfer_bytes ~strategy:config.strategy
            ~params:config.params ~trace:(trace, "transfer") ~rto_min ~rto_initial
            ~max_retries
            ~on_complete:(fun _ -> Engine.Sim.stop sim)
            ~on_fail:(fun _ -> Engine.Sim.stop sim)
            ()
        in
        (* Let the invariant oracles attach before the first cell
           moves.  Probes are passive observers: an instrumented run
           must stay schedule-identical to a plain one. *)
        Option.iter (fun f -> f sim links d) probe;
        arm_faults ();
        Backtap.Transfer.start d;
        d)
  in
  let d = r.transfer in
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
  let elapsed_s = Engine.Time.to_sec_f (Engine.Time.diff end_at r.started_at) in
  {
    outcome;
    time_to_last_byte = Backtap.Transfer.time_to_last_byte d;
    failed_after =
      Option.map
        (fun t -> Engine.Time.diff t r.started_at)
        (Backtap.Transfer.failed_at d);
    failed_hop = Backtap.Transfer.failed_hop d;
    goodput_bps =
      (if elapsed_s > 0. then float_of_int (8 * received) /. elapsed_s else 0.);
    received_bytes = received;
    retransmissions = Backtap.Transfer.total_retransmissions d;
    drops = Netsim.Flow_monitor.link_drops links;
    queue_high_watermark_bytes =
      Array.fold_left
        (fun acc l -> Stdlib.max acc (Netsim.Link.queue_high_watermark_bytes l))
        0 links;
    blackholed_cells =
      Tor_model.Switchboard.blackholed_cells (Tor_net.switchboard w.net w.bottleneck);
    circuit_established_in = r.established_in;
    transfer_started_at = r.started_at;
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
