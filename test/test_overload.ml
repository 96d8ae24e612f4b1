(* Tests for relay overload protection: admission control refuses
   CREATEs at budget, the OOM responder sheds the heaviest circuit,
   refused relays are never excluded (busy is not crashed), and the
   flash-crowd experiment is byte-identical across --jobs values. *)

let relay_flags =
  [ Tor_model.Relay_info.Guard; Tor_model.Relay_info.Exit;
    Tor_model.Relay_info.Fast; Tor_model.Relay_info.Stable ]

let small_config =
  { Workload.Overload_experiment.default_config with
    sessions = 6;
    transfer_bytes = Engine.Units.kib 32;
    horizon = Engine.Time.s 60;
  }

let kinds_of events =
  List.sort_uniq compare (List.map (fun e -> e.Engine.Trace.kind) events)

(* Without budgets the crowd is just contention: nothing is refused,
   nothing is killed, everyone finishes. *)
let test_unbudgeted_crowd_completes () =
  let r =
    Workload.Overload_experiment.run ~seed:5
      { small_config with max_circuits = None; max_queued_bytes = None }
  in
  Alcotest.(check int) "all sessions complete" r.sessions r.completed;
  Alcotest.(check int) "no refusals" 0 r.refusals;
  Alcotest.(check int) "no refused builds" 0 r.refused_builds;
  Alcotest.(check int) "no oom kills" 0 r.oom_kills;
  Alcotest.(check int) "no overload transitions" 0 r.overload_enters;
  Alcotest.(check int) "every byte delivered"
    (r.sessions * Engine.Units.kib 32)
    r.delivered_bytes

(* The default (tight) budgets must make both protection mechanisms
   fire — and the crowd must degrade, not collapse. *)
let test_tight_budgets_refuse_and_kill () =
  let r =
    Workload.Overload_experiment.run ~seed:42
      Workload.Overload_experiment.default_config
  in
  Alcotest.(check bool)
    (Printf.sprintf "admission control refused builds (%d)" r.refusals)
    true (r.refusals > 0);
  Alcotest.(check bool)
    (Printf.sprintf "clients saw refusals (%d)" r.refused_builds)
    true (r.refused_builds > 0);
  Alcotest.(check bool)
    (Printf.sprintf "oom responder killed circuits (%d)" r.oom_kills)
    true (r.oom_kills > 0);
  Alcotest.(check bool) "refusal rate in (0, 1)" true
    (r.refusal_rate > 0. && r.refusal_rate < 1.);
  Alcotest.(check bool)
    (Printf.sprintf "some sessions still complete (%d/%d)" r.completed
       r.sessions)
    true (r.completed > 0);
  Alcotest.(check bool) "completed sessions delivered their bytes" true
    (r.delivered_bytes >= r.completed * Engine.Units.kib 64);
  (* The synchronous OOM responder bounds occupancy by the budget plus
     at most one in-flight charge. *)
  (match
     Workload.Overload_experiment.default_config.max_queued_bytes
   with
  | Some cap ->
      Alcotest.(check bool)
        (Printf.sprintf "relay hwm %d within cap %d + one cell" r.relay_byte_hwm
           cap)
        true
        (r.relay_byte_hwm <= cap + Backtap.Wire.cell_size)
  | None -> Alcotest.fail "default config must set max_queued_bytes");
  let kinds = kinds_of r.events in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        ("event log has a " ^ Engine.Trace.kind_to_string k ^ " event")
        true (List.mem k kinds))
    [ Engine.Trace.Refused; Engine.Trace.Oom_kill; Engine.Trace.Overload_enter;
      Engine.Trace.Overload_exit ]

(* The regression behind the whole design: a refusal must NOT put the
   busy relay on the exclusion list.  Three relays, three hops — there
   is exactly one possible path, so if the session excluded a refusing
   relay it could never build again (no-path exhaustion).  All relays
   start at circuit budget 0 (always refuse); at t = 1 s the load
   "drains" (budgets lifted) and the session must complete through the
   very relays that refused it. *)
let test_busy_then_idle_relay_is_reused () =
  let sim = Engine.Sim.create () in
  let b = Workload.Tor_net.builder sim () in
  List.iter (Workload.Tor_net.add_relay b)
    (List.init 3 (fun i ->
         { Workload.Relay_gen.nickname = Printf.sprintf "r%d" i;
           bandwidth = Engine.Units.Rate.mbit 10;
           latency = Engine.Time.ms 5;
           flags = relay_flags }));
  let client =
    Workload.Tor_net.add_endpoint b ~name:"client"
      ~rate:(Engine.Units.Rate.mbit 100) ~delay:(Engine.Time.ms 5)
  in
  let server =
    Workload.Tor_net.add_endpoint b ~name:"server"
      ~rate:(Engine.Units.Rate.mbit 100) ~delay:(Engine.Time.ms 5)
  in
  let net = Workload.Tor_net.finalize b in
  let ctls =
    List.map
      (fun (r : Tor_model.Relay_info.t) ->
        Workload.Tor_net.relay_ctl net r.node)
      (Tor_model.Directory.relays (Workload.Tor_net.directory net))
  in
  let set_budget budget =
    List.iter (fun ctl -> Tor_model.Relay_ctl.set_budget ctl budget) ctls
  in
  set_budget
    { Tor_model.Switchboard.max_circuits = Some 0; max_queued_bytes = None };
  let bytes = Engine.Units.kib 8 in
  let deploy ~circuit ~offset ~on_complete ~on_fail =
    let d =
      Backtap.Transfer.deploy
        ~node_of:(Workload.Tor_net.backtap_node net)
        ~circuit ~bytes ~strategy:Circuitstart.Controller.Circuit_start
        ~params:Circuitstart.Params.default ~offset ~on_complete
        ~on_fail:(fun at -> on_fail ~failed_hop:None at)
        ()
    in
    {
      Tor_model.Session.start = (fun () -> Backtap.Transfer.start d);
      delivered = (fun () -> Backtap.Transfer.delivered_bytes d);
      teardown =
        (fun () ->
          List.iter Backtap.Hop_sender.abort (Backtap.Transfer.senders d);
          Backtap.Transfer.teardown d);
    }
  in
  let session =
    Tor_model.Session.create
      ~sb:(Workload.Tor_net.switchboard net client)
      ~directory:(Workload.Tor_net.directory net)
      ~ids:(Workload.Tor_net.circuit_ids net)
      ~server ~rng:(Engine.Rng.create 11) ~hops:3 ~deploy ~max_rebuilds:10
      ~on_outcome:(fun _ -> Engine.Sim.stop sim)
      ()
  in
  ignore
    (Engine.Sim.schedule_at sim Engine.Time.zero (fun () ->
         Tor_model.Session.start session)
      : Engine.Sim.handle);
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.s 1) (fun () ->
         set_budget Tor_model.Switchboard.no_budget)
      : Engine.Sim.handle);
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  Alcotest.(check bool)
    (Printf.sprintf "build was refused while busy (%d)"
       (Tor_model.Session.refused_builds session))
    true
    (Tor_model.Session.refused_builds session >= 1);
  Alcotest.(check bool) "no relay was excluded" true
    (Tor_model.Session.excluded session = []);
  (match Tor_model.Session.outcome session with
  | Some (Tor_model.Session.Completed _) -> ()
  | Some (Tor_model.Session.Exhausted { reason; _ }) ->
      Alcotest.fail
        ("session exhausted (" ^ Tor_model.Session.reason_to_string reason
       ^ "): a refused relay was not reusable after its load drained")
  | None -> Alcotest.fail "session never terminated");
  Alcotest.(check int) "every byte delivered through the once-busy relays"
    bytes
    (Tor_model.Session.delivered_bytes session)

(* Experiment-level variant: a circuit-count budget alone causes
   refusals, yet the crowd drains to completion because refused relays
   stay selectable.  A session may still burn through its rebuild
   budget while the relays are hot — what must NEVER happen is a
   no-path exhaustion, the signature of a refusal poisoning the
   exclusion list (4 relays, 3 hops: excluding two ends all paths). *)
let test_refusals_drain_to_completion () =
  let r =
    Workload.Overload_experiment.run ~seed:3
      { small_config with
        max_circuits = Some 2;
        max_queued_bytes = None;
        max_rebuilds = 20;
        mean_interarrival = Engine.Time.ms 400;
      }
  in
  Alcotest.(check bool)
    (Printf.sprintf "refusals occurred (%d)" r.refusals)
    true (r.refusals > 0);
  List.iter
    (fun (e : Engine.Trace.event) ->
      if e.kind = Engine.Trace.Exhausted then
        Alcotest.(check bool)
          ("exhaustion is never no-path: " ^ e.detail)
          false
          (String.length e.detail >= 7 && String.sub e.detail 0 7 = "no-path"))
    r.events;
  Alcotest.(check bool)
    (Printf.sprintf "most sessions complete (%d/%d)" r.completed r.sessions)
    true (r.completed >= r.sessions - 1);
  Alcotest.(check int) "none stuck at the horizon" 0 r.timed_out

(* The crash and budget axes of the session world compose: a relay of
   session 0's first circuit dies mid-crowd while the budgets are
   refusing and OOM-killing, and still every session reaches a
   terminal outcome, the byte budget holds, and no resumed transfer
   delivers a cell twice. *)
let test_crash_under_budgets () =
  let config =
    { Workload.Overload_experiment.default_config with
      crash_at = Some (Engine.Time.ms 300) }
  in
  let r = Workload.Overload_experiment.run ~seed:42 config in
  Alcotest.(check bool) "the relay crashed" true
    (List.mem Engine.Trace.Fault (kinds_of r.events));
  Alcotest.(check int) "none stuck at the horizon" 0 r.timed_out;
  Alcotest.(check int) "every session terminated" r.sessions
    (r.completed + r.exhausted);
  let cap = Option.get config.max_queued_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "relay hwm %d within cap %d + one cell" r.relay_byte_hwm cap)
    true
    (r.relay_byte_hwm <= cap + Backtap.Wire.cell_size);
  Alcotest.(check int) "no cell delivered twice" 0 r.duplicates

let test_compare_strategies_paired () =
  let c =
    Workload.Experiment.compare
      (module Workload.Overload_experiment)
      ~seed:7 small_config
  in
  List.iter
    (fun (label, (r : Workload.Overload_experiment.result)) ->
      Alcotest.(check int) (label ^ " crowd size") small_config.sessions
        r.sessions;
      Alcotest.(check int) (label ^ " accounted")
        r.sessions
        (r.completed + r.exhausted + r.timed_out))
    [ ("circuitstart", c.circuit_start); ("slowstart", c.slow_start) ]

let test_deterministic_across_jobs () =
  let tasks =
    [
      (7, small_config);
      (8, { small_config with strategy = Circuitstart.Controller.Slow_start });
      (9, { small_config with max_queued_bytes = Some (Engine.Units.kib 24) });
    ]
  in
  (* Structural equality covers every field, including the full trace
     event list — ordering must not depend on the pool. *)
  Test_util.check_jobs_deterministic (fun jobs ->
      Workload.Overload_experiment.run_many ~jobs tasks)

let () =
  Alcotest.run "overload"
    [
      ( "protection",
        [
          Alcotest.test_case "unbudgeted crowd completes" `Quick
            test_unbudgeted_crowd_completes;
          Alcotest.test_case "tight budgets refuse and kill" `Quick
            test_tight_budgets_refuse_and_kill;
          Alcotest.test_case "busy-then-idle relay is reused" `Quick
            test_busy_then_idle_relay_is_reused;
          Alcotest.test_case "refusals drain to completion" `Quick
            test_refusals_drain_to_completion;
          Alcotest.test_case "crash under budgets" `Quick
            test_crash_under_budgets;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "compare_strategies paired" `Quick
            test_compare_strategies_paired;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_deterministic_across_jobs;
        ] );
    ]
