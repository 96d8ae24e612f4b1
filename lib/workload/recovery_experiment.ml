type config = {
  relay_count : int;
  hops : int;
  relay_base_rate : Engine.Units.Rate.t;
  access_delay : Engine.Time.t;
  endpoint_rate : Engine.Units.Rate.t;
  transfer_bytes : int;
  strategy : Circuitstart.Controller.strategy;
  params : Circuitstart.Params.t;
  link_queue : Netsim.Nqueue.capacity;
  crash_at : Engine.Time.t option;
  crash_position : int;
  selection : Tor_model.Directory.selection;
  max_rebuilds : int;
  rto_min : Engine.Time.t;
  rto_initial : Engine.Time.t;
  max_retries : int;
  horizon : Engine.Time.t;
}

let default_config =
  {
    relay_count = 8;
    hops = 3;
    relay_base_rate = Engine.Units.Rate.mbit 6;
    access_delay = Engine.Time.ms 10;
    endpoint_rate = Engine.Units.Rate.mbit 100;
    transfer_bytes = Engine.Units.kib 512;
    strategy = Circuitstart.Controller.Circuit_start;
    params = Circuitstart.Params.default;
    link_queue = Netsim.Nqueue.unbounded;
    crash_at = None;
    crash_position = 2;
    selection = Tor_model.Directory.Bandwidth_weighted;
    max_rebuilds = 3;
    rto_min = Engine.Time.ms 300;
    rto_initial = Engine.Time.ms 500;
    max_retries = 4;
    horizon = Engine.Time.s 120;
  }

let validate_config c =
  if c.hops < 1 then Error "hops must be positive"
  else if c.relay_count <= c.hops then
    Error "relay_count must exceed hops (recovery needs spare relays)"
  else if c.crash_position < 1 || c.crash_position > c.hops then
    Error "crash_position must be in [1, hops]"
  else if c.transfer_bytes <= 0 then Error "transfer_bytes must be positive"
  else if c.max_rebuilds < 0 then Error "max_rebuilds must be >= 0"
  else if c.max_retries < 1 then Error "max_retries must be positive"
  else if Engine.Time.(c.horizon <= Engine.Time.zero) then
    Error "horizon must be positive"
  else
    match Circuitstart.Params.validate c.params with
    | Error msg -> Error msg
    | Ok _ -> Ok c

type outcome =
  | Completed
  | Exhausted of Tor_model.Session.reason
  | Timed_out

let outcome_to_string = function
  | Completed -> "completed"
  | Exhausted reason ->
      "exhausted:" ^ Tor_model.Session.reason_to_string reason
  | Timed_out -> "timed-out"

type result = {
  outcome : outcome;
  time_to_last_byte : Engine.Time.t option;
  rebuilds : int;
  generations : int;
  recovery_times : Engine.Time.t list;
  time_to_recover : Engine.Time.t option;
  delivered_bytes : int;
  duplicates : int;
  retransmissions : int;
  drops : Netsim.Link.drop_counts;
  queue_high_watermark_bytes : int;
  goodput_bps : float;
  excluded : Netsim.Node_id.t list;
  events : Engine.Trace.event list;
  wall_events : int;
}

(* Relay bandwidths cycle over four tiers so the two selection policies
   actually differ: under uniform selection every relay is equally
   likely, under bandwidth weighting the fat tiers dominate. *)
let relay_rate base i =
  Engine.Units.Rate.bps (Engine.Units.Rate.to_bps base * (1 + (i mod 4)))

let run ?(seed = 42) ?probe config =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Recovery_experiment.run: " ^ msg)
  in
  let rng = Engine.Rng.create seed in
  let sim = Engine.Sim.create () in
  let b = Tor_net.builder sim ~queue:config.link_queue () in
  List.iter (Tor_net.add_relay b)
    (List.init config.relay_count (fun i ->
         { Relay_gen.nickname = Printf.sprintf "relay%d" i;
           bandwidth = relay_rate config.relay_base_rate i;
           latency = config.access_delay;
           flags =
             [ Tor_model.Relay_info.Guard; Tor_model.Relay_info.Exit;
               Tor_model.Relay_info.Fast; Tor_model.Relay_info.Stable ] }));
  let client =
    Tor_net.add_endpoint b ~name:"client" ~rate:config.endpoint_rate
      ~delay:config.access_delay
  in
  let server =
    Tor_net.add_endpoint b ~name:"server" ~rate:config.endpoint_rate
      ~delay:config.access_delay
  in
  let net = Tor_net.finalize b in
  let trace = Engine.Trace.create () in
  let transfers = ref [] in
  let generation = ref 0 in
  let first_sent = ref None in
  (* The crash is armed exactly once, when the first generation's
     transfer starts: the victim is whatever relay the session drew at
     path position [crash_position], so the schedule is a function of
     the seed alone and is identical for both strategies of a paired
     comparison. *)
  let crash_armed = ref false in
  let arm_crash (circuit : Tor_model.Circuit.t) =
    match config.crash_at with
    | Some after when not !crash_armed ->
        crash_armed := true;
        let victim =
          match
            List.nth_opt (Tor_model.Circuit.nodes circuit) config.crash_position
          with
          | Some node -> node
          | None -> assert false (* crash_position <= hops, validated *)
        in
        let at = Engine.Time.add (Engine.Sim.now sim) after in
        ignore @@
        Engine.Sim.schedule_at sim at (fun () ->
            Engine.Trace.record_event trace Engine.Trace.Fault
              ~subject:(Format.asprintf "relay/%a" Netsim.Node_id.pp victim)
              ~detail:"crash" (Engine.Sim.now sim);
            Tor_model.Relay_ctl.crash (Tor_net.relay_ctl net victim))
    | Some _ | None -> ()
  in
  let deploy ~circuit ~offset ~on_complete ~on_fail =
    let gen = !generation in
    incr generation;
    let dr = ref None in
    let d =
      Backtap.Transfer.deploy
        ~node_of:(Tor_net.backtap_node net)
        ~circuit ~bytes:config.transfer_bytes ~strategy:config.strategy
        ~params:config.params
        ~trace:(trace, Printf.sprintf "transfer/g%d" gen)
        ~rto_min:config.rto_min ~rto_initial:config.rto_initial
        ~max_retries:config.max_retries ~offset ~on_complete
        ~on_fail:(fun at ->
          let failed_hop = Option.bind !dr Backtap.Transfer.failed_hop in
          on_fail ~failed_hop at)
        ()
    in
    dr := Some d;
    transfers := d :: !transfers;
    (* Oracles attach to every generation's transfer before it starts;
       probes are passive, keeping the run schedule-identical. *)
    (match probe with
    | Some f ->
        f sim
          (Netsim.Topology.links (Netsim.Network.topology (Tor_net.network net)))
          d
    | None -> ());
    {
      Tor_model.Session.start =
        (fun () ->
          if gen = 0 then begin
            first_sent := Some (Engine.Sim.now sim);
            arm_crash circuit
          end;
          Backtap.Transfer.start d);
      delivered = (fun () -> Backtap.Transfer.delivered_bytes d);
      teardown = (fun () -> Backtap.Transfer.teardown d);
    }
  in
  let session =
    Tor_model.Session.create
      ~sb:(Tor_net.switchboard net client)
      ~directory:(Tor_net.directory net)
      ~ids:(Tor_net.circuit_ids net)
      ~server ~rng ~hops:config.hops ~deploy ~selection:config.selection
      ~max_rebuilds:config.max_rebuilds ~trace:(trace, "session")
      ~on_outcome:(fun _ -> Engine.Sim.stop sim)
      ()
  in
  Tor_model.Session.start session;
  Engine.Sim.run sim ~until:config.horizon;
  let outcome, end_at =
    match Tor_model.Session.outcome session with
    | Some (Tor_model.Session.Completed { at; _ }) -> (Completed, at)
    | Some (Tor_model.Session.Exhausted { at; reason; _ }) ->
        (Exhausted reason, at)
    | None -> (Timed_out, Engine.Sim.now sim)
  in
  let started =
    match !first_sent with Some t -> t | None -> Engine.Sim.now sim
  in
  let delivered = Tor_model.Session.delivered_bytes session in
  let elapsed_s = Engine.Time.to_sec_f (Engine.Time.diff end_at started) in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 !transfers in
  {
    outcome;
    time_to_last_byte =
      (match outcome with
      | Completed -> Some (Engine.Time.diff end_at started)
      | Exhausted _ | Timed_out -> None);
    rebuilds = Tor_model.Session.rebuilds session;
    generations = Tor_model.Session.generation session;
    recovery_times = Tor_model.Session.recovery_times session;
    time_to_recover =
      (match Tor_model.Session.recovery_times session with
      | first :: _ -> Some first
      | [] -> None);
    delivered_bytes = delivered;
    duplicates =
      sum (fun d -> Tor_model.Stream.Sink.duplicates (Backtap.Transfer.sink d));
    retransmissions = sum Backtap.Transfer.total_retransmissions;
    drops =
      Netsim.Flow_monitor.link_drops
        (Netsim.Topology.links (Netsim.Network.topology (Tor_net.network net)));
    queue_high_watermark_bytes =
      List.fold_left
        (fun acc l -> Stdlib.max acc (Netsim.Link.queue_high_watermark_bytes l))
        0
        (Netsim.Topology.links (Netsim.Network.topology (Tor_net.network net)));
    goodput_bps =
      (if elapsed_s > 0. then float_of_int (8 * delivered) /. elapsed_s else 0.);
    excluded = Tor_model.Session.excluded session;
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
  Format.fprintf fmt ", %d rebuild%s" r.rebuilds
    (if r.rebuilds = 1 then "" else "s");
  (match r.time_to_recover with
  | Some t -> Format.fprintf fmt ", recovered in %a" Engine.Time.pp t
  | None -> ());
  Format.fprintf fmt
    ", %d B delivered, %d dup, %d retx, drops %a, queue hwm %d B, %.2f Mbit/s"
    r.delivered_bytes r.duplicates r.retransmissions Netsim.Link.pp_drop_counts
    r.drops r.queue_high_watermark_bytes (r.goodput_bps /. 1e6)
