type config = {
  relay_count : int;
  hops : int;
  relay_base_rate : Engine.Units.Rate.t;
  access_delay : Engine.Time.t;
  endpoint_rate : Engine.Units.Rate.t;
  sessions : int;
  mean_interarrival : Engine.Time.t;
  transfer_bytes : int;
  strategy : Circuitstart.Controller.strategy;
  params : Circuitstart.Params.t;
  link_queue : Netsim.Nqueue.capacity;
  max_circuits : int option;
  max_queued_bytes : int option;
  selection : Tor_model.Directory.selection;
  max_rebuilds : int;
  crash_at : Engine.Time.t option;
  crash_position : int;
  horizon : Engine.Time.t;
}

let default_config =
  {
    relay_count = 4;
    hops = 3;
    relay_base_rate = Engine.Units.Rate.mbit 4;
    access_delay = Engine.Time.ms 10;
    endpoint_rate = Engine.Units.Rate.mbit 100;
    sessions = 12;
    mean_interarrival = Engine.Time.ms 150;
    transfer_bytes = Engine.Units.kib 64;
    strategy = Circuitstart.Controller.Circuit_start;
    params = Circuitstart.Params.default;
    link_queue = Netsim.Nqueue.unbounded;
    max_circuits = Some 6;
    max_queued_bytes = Some (Engine.Units.kib 48);
    selection = Tor_model.Directory.Bandwidth_weighted;
    max_rebuilds = 6;
    crash_at = None;
    crash_position = 2;
    horizon = Engine.Time.s 180;
  }

let recovery_config =
  {
    default_config with
    relay_count = 8;
    relay_base_rate = Engine.Units.Rate.mbit 6;
    sessions = 1;
    transfer_bytes = Engine.Units.kib 512;
    max_circuits = None;
    max_queued_bytes = None;
    max_rebuilds = 3;
    crash_position = 2;
    horizon = Engine.Time.s 120;
  }

let validate_config c =
  if c.hops < 1 then Error "hops must be positive"
  else if c.relay_count <= c.hops then
    Error "relay_count must exceed hops (refused sessions need spare relays)"
  else if c.crash_position < 1 || c.crash_position > c.hops then
    Error "crash_position must be in [1, hops]"
  else if c.sessions < 1 then Error "sessions must be positive"
  else if c.transfer_bytes <= 0 then Error "transfer_bytes must be positive"
  else if Engine.Time.(c.mean_interarrival <= Engine.Time.zero) then
    Error "mean_interarrival must be positive"
  else if (match c.max_circuits with Some n -> n < 1 | None -> false) then
    Error "max_circuits must be positive when set"
  else if (match c.max_queued_bytes with Some n -> n < 1 | None -> false) then
    Error "max_queued_bytes must be positive when set"
  else if c.max_rebuilds < 0 then Error "max_rebuilds must be >= 0"
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

type session_result = {
  outcome : outcome;
  recovery_times : Engine.Time.t list;
  excluded : Netsim.Node_id.t list;
}

type result = {
  sessions : int;
  completed : int;
  exhausted : int;
  timed_out : int;
  per_session : session_result list;
  rebuilds : int;
  refused_builds : int;
  admitted : int;
  refusals : int;
  refusal_rate : float;
  oom_kills : int;
  overload_enters : int;
  delivered_bytes : int;
  duplicates : int;
  retransmissions : int;
  drops : Netsim.Link.drop_counts;
  queue_high_watermark_bytes : int;
  mean_ttlb : Engine.Time.t option;
  max_ttlb : Engine.Time.t option;
  goodput_bps : float;
  relay_byte_hwm : int;
  events : Engine.Trace.event list;
  wall_events : int;
}

(* Relay bandwidths cycle over four tiers so the two selection policies
   actually differ: bandwidth-weighted selection concentrates the crowd
   on the fat relays — which is precisely what makes them overload
   first — while uniform selection spreads it. *)
let relay_rate base i =
  Engine.Units.Rate.bps (Engine.Units.Rate.to_bps base * (1 + (i mod 4)))

let run ?(seed = 42) ?probe ?relay_probe config =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Overload_experiment.run: " ^ msg)
  in
  let rng = Engine.Rng.create seed in
  (* Independent streams, drawn in a fixed order: the arrival schedule
     and each session's path draws are functions of the seed alone,
     identical for both strategies of a paired comparison. *)
  let arrival_rng = Engine.Rng.split rng in
  let session_rngs = Array.init config.sessions (fun _ -> Engine.Rng.split rng) in
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
  let clients =
    Array.init config.sessions (fun i ->
        Tor_net.add_endpoint b ~name:(Printf.sprintf "client%d" i)
          ~rate:config.endpoint_rate ~delay:config.access_delay)
  in
  let server =
    Tor_net.add_endpoint b ~name:"server" ~rate:config.endpoint_rate
      ~delay:config.access_delay
  in
  let net = Tor_net.finalize b in
  let links = Netsim.Topology.links (Netsim.Network.topology (Tor_net.network net)) in
  let trace = Engine.Trace.create () in
  let budget =
    { Tor_model.Switchboard.max_circuits = config.max_circuits;
      max_queued_bytes = config.max_queued_bytes }
  in
  let relay_ctls =
    List.map
      (fun (r : Tor_model.Relay_info.t) ->
        let ctl = Tor_net.relay_ctl net r.node in
        Tor_model.Relay_ctl.set_budget ctl budget;
        Tor_model.Relay_ctl.set_trace ctl
          (trace, Printf.sprintf "relay/%s" r.nickname);
        ctl)
      (Tor_model.Directory.relays (Tor_net.directory net))
  in
  (match relay_probe with Some f -> f sim relay_ctls | None -> ());
  let transfers = ref [] in
  let remaining = ref config.sessions in
  let arrivals =
    (* Poisson process: cumulative exponential inter-arrival draws. *)
    let t = ref Engine.Time.zero in
    Array.init config.sessions (fun _ ->
        let gap =
          Engine.Rng.exponential arrival_rng
            ~mean:(Engine.Time.to_sec_f config.mean_interarrival)
        in
        t := Engine.Time.add !t (Engine.Time.of_sec_f gap);
        !t)
  in
  let ttlbs = Engine.Stats.Online.create () in
  (* The crash is armed once, when session 0's first transfer starts:
     the victim is whatever relay that session drew at path position
     [crash_position], so the schedule is a function of the seed alone
     and identical for every strategy of a paired comparison. *)
  let arm_crash circuit =
    match config.crash_at with
    | None -> ()
    | Some after ->
        (* crash_position <= hops, validated; node 0 is the client. *)
        let victim = List.nth (Tor_model.Circuit.nodes circuit) config.crash_position in
        ignore
          (Engine.Sim.schedule_after sim after (fun () ->
               Engine.Trace.record_event trace Engine.Trace.Fault
                 ~subject:(Format.asprintf "relay/%a" Netsim.Node_id.pp victim)
                 ~detail:"crash" (Engine.Sim.now sim);
               Tor_model.Relay_ctl.crash (Tor_net.relay_ctl net victim))
            : Engine.Sim.handle)
  in
  let make_session i =
    let client = clients.(i) in
    let generation = ref 0 in
    let deploy ~circuit ~offset ~on_complete ~on_fail =
      let gen = !generation in
      incr generation;
      let dr = ref None in
      let d =
        Backtap.Transfer.deploy
          ~node_of:(Tor_net.backtap_node net)
          ~circuit ~bytes:config.transfer_bytes ~strategy:config.strategy
          ~params:config.params
          ~trace:(trace, Printf.sprintf "transfer/s%d/g%d" i gen)
          ~rto_min:Fault_experiment.rto_min ~rto_initial:Fault_experiment.rto_initial
          ~max_retries:Fault_experiment.max_retries ~offset ~on_complete
          ~on_fail:(fun at ->
            let failed_hop = Option.bind !dr Backtap.Transfer.failed_hop in
            on_fail ~failed_hop at)
          ()
      in
      dr := Some d;
      transfers := d :: !transfers;
      (match probe with Some f -> f sim links d | None -> ());
      {
        Tor_model.Session.start =
          (fun () ->
            if i = 0 && gen = 0 then arm_crash circuit;
            Backtap.Transfer.start d);
        delivered = (fun () -> Backtap.Transfer.delivered_bytes d);
        teardown =
          (fun () ->
            (* Quiesce before unregistering: an OOM-killed or failed
               generation must stop retransmitting into flows that are
               about to disappear. *)
            List.iter Backtap.Hop_sender.abort (Backtap.Transfer.senders d);
            Backtap.Transfer.teardown d);
      }
    in
    Tor_model.Session.create
      ~sb:(Tor_net.switchboard net client)
      ~directory:(Tor_net.directory net)
      ~ids:(Tor_net.circuit_ids net)
      ~server ~rng:session_rngs.(i) ~hops:config.hops ~deploy
      ~selection:config.selection ~max_rebuilds:config.max_rebuilds
      ~trace:(trace, Printf.sprintf "session%d" i)
      ~on_outcome:(fun outcome ->
        (match outcome with
        | Tor_model.Session.Completed { at; _ } ->
            Engine.Stats.Online.add ttlbs
              (Engine.Time.to_sec_f (Engine.Time.diff at arrivals.(i)))
        | Tor_model.Session.Exhausted _ -> ());
        decr remaining;
        if !remaining = 0 then Engine.Sim.stop sim)
      ()
  in
  let sessions = Array.init config.sessions make_session in
  Array.iteri
    (fun i session ->
      ignore
        (Engine.Sim.schedule_at sim arrivals.(i) (fun () ->
             Tor_model.Session.start session)
          : Engine.Sim.handle))
    sessions;
  Engine.Sim.run sim ~until:config.horizon;
  let last_terminal = ref Engine.Time.zero in
  let per_session =
    Array.to_list
      (Array.map
         (fun session ->
           let outcome, at =
             match Tor_model.Session.outcome session with
             | Some (Tor_model.Session.Completed { at; _ }) -> (Completed, at)
             | Some (Tor_model.Session.Exhausted { at; reason; _ }) ->
                 (Exhausted reason, at)
             | None -> (Timed_out, Engine.Sim.now sim)
           in
           last_terminal := Engine.Time.max !last_terminal at;
           {
             outcome;
             recovery_times = Tor_model.Session.recovery_times session;
             excluded = Tor_model.Session.excluded session;
           })
         sessions)
  in
  let count f = List.length (List.filter (fun s -> f s.outcome) per_session) in
  let sum_sessions f =
    Array.fold_left (fun acc s -> acc + f s) 0 sessions
  in
  let sum_transfers f = List.fold_left (fun acc d -> acc + f d) 0 !transfers in
  let sum_relays f =
    List.fold_left (fun acc ctl -> acc + f ctl) 0 relay_ctls
  in
  let admitted = sum_relays Tor_model.Relay_ctl.admitted in
  let refusals = sum_relays Tor_model.Relay_ctl.refusals in
  let delivered =
    sum_sessions Tor_model.Session.delivered_bytes
  in
  let started = arrivals.(0) in
  let elapsed_s =
    Engine.Time.to_sec_f (Engine.Time.diff !last_terminal started)
  in
  {
    sessions = config.sessions;
    completed = count (( = ) Completed);
    exhausted = count (function Exhausted _ -> true | Completed | Timed_out -> false);
    timed_out = count (( = ) Timed_out);
    per_session;
    rebuilds = sum_sessions Tor_model.Session.rebuilds;
    refused_builds = sum_sessions Tor_model.Session.refused_builds;
    admitted;
    refusals;
    refusal_rate =
      (if admitted + refusals > 0 then
         float_of_int refusals /. float_of_int (admitted + refusals)
       else 0.);
    oom_kills = sum_relays Tor_model.Relay_ctl.oom_kills;
    overload_enters = sum_relays Tor_model.Relay_ctl.overload_enters;
    delivered_bytes = delivered;
    duplicates =
      sum_transfers (fun d ->
          Tor_model.Stream.Sink.duplicates (Backtap.Transfer.sink d));
    retransmissions = sum_transfers Backtap.Transfer.total_retransmissions;
    drops = Netsim.Flow_monitor.link_drops links;
    queue_high_watermark_bytes =
      Array.fold_left
        (fun acc l -> Stdlib.max acc (Netsim.Link.queue_high_watermark_bytes l))
        0 links;
    mean_ttlb =
      (if Engine.Stats.Online.count ttlbs > 0 then
         Some (Engine.Time.of_sec_f (Engine.Stats.Online.mean ttlbs))
       else None);
    max_ttlb =
      (if Engine.Stats.Online.count ttlbs > 0 then
         Some (Engine.Time.of_sec_f (Engine.Stats.Online.max ttlbs))
       else None);
    goodput_bps =
      (if elapsed_s > 0. then float_of_int (8 * delivered) /. elapsed_s else 0.);
    relay_byte_hwm =
      List.fold_left
        (fun acc ctl ->
          Stdlib.max acc
            (Tor_model.Switchboard.byte_high_watermark
               (Tor_model.Relay_ctl.switchboard ctl)))
        0 relay_ctls;
    events = Engine.Trace.events trace;
    wall_events = Engine.Sim.events_executed sim;
  }

let run_many ?jobs tasks =
  Engine.Pool.map_list ?jobs (fun (seed, config) -> run ~seed config) tasks

let with_strategy strategy config = { config with strategy }

let pp_result fmt r =
  Format.fprintf fmt "%d/%d completed (%d exhausted, %d timed out)" r.completed
    r.sessions r.exhausted r.timed_out;
  Format.fprintf fmt ", refusal rate %.1f%% (%d refused / %d admitted)"
    (100. *. r.refusal_rate) r.refusals r.admitted;
  Format.fprintf fmt ", %d oom kill%s" r.oom_kills
    (if r.oom_kills = 1 then "" else "s");
  (match r.mean_ttlb with
  | Some t -> Format.fprintf fmt ", mean ttlb %a" Engine.Time.pp t
  | None -> ());
  Format.fprintf fmt ", %d B delivered, %.2f Mbit/s, hwm %d B"
    r.delivered_bytes (r.goodput_bps /. 1e6) r.relay_byte_hwm
