(* Tests for the session/recovery layer, through the session world's
   crash preset: a relay crash mid-transfer is survived by rebuilding
   onto an alternate path and resuming at the delivered prefix; the
   rebuild budget is honoured; and results are byte-identical for a
   fixed seed across --jobs values. *)

module X = Workload.Overload_experiment

let crash_config =
  { X.recovery_config with
    transfer_bytes = Engine.Units.kib 64;
    crash_at = Some (Engine.Time.ms 200);
  }

(* The preset runs one session. *)
let session (r : X.result) = List.hd r.per_session
let outcome r = X.outcome_to_string (session r).outcome

let kinds_of events =
  List.sort_uniq compare (List.map (fun e -> e.Engine.Trace.kind) events)

let test_clean_run_never_rebuilds () =
  (* The probe fires once per deployed circuit generation. *)
  let generations = ref 0 in
  let r =
    X.run ~seed:3
      ~probe:(fun _ _ _ -> incr generations)
      { crash_config with crash_at = None }
  in
  Alcotest.(check string) "completed" "completed" (outcome r);
  Alcotest.(check int) "no rebuilds" 0 r.rebuilds;
  Alcotest.(check int) "one generation" 1 !generations;
  Alcotest.(check int) "all bytes" (Engine.Units.kib 64) r.delivered_bytes;
  Alcotest.(check bool) "no recovery time" true ((session r).recovery_times = []);
  Alcotest.(check bool) "nothing excluded" true ((session r).excluded = [])

let test_session_recovers_after_crash () =
  let r = X.run ~seed:7 crash_config in
  Alcotest.(check string) "completed despite crash" "completed" (outcome r);
  Alcotest.(check bool)
    (Printf.sprintf "rebuilt at least once (%d)" r.rebuilds)
    true (r.rebuilds >= 1);
  Alcotest.(check int) "every byte delivered" (Engine.Units.kib 64)
    r.delivered_bytes;
  Alcotest.(check int) "no cell delivered twice" 0 r.duplicates;
  Alcotest.(check bool) "time-to-recover measured" true
    ((session r).recovery_times <> []);
  Alcotest.(check int) "one recovery per rebuild that resumed" r.rebuilds
    (List.length (session r).recovery_times);
  Alcotest.(check bool) "suspects excluded" true ((session r).excluded <> []);
  (* The event log tells the whole story: the crash, the rebuild
     decisions, and the resume with its recovery latency. *)
  let kinds = kinds_of r.events in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        ("event log has a " ^ Engine.Trace.kind_to_string k ^ " event")
        true (List.mem k kinds))
    [ Engine.Trace.Fault; Engine.Trace.Rebuild; Engine.Trace.Resume ]

let test_resume_event_carries_offset () =
  let r = X.run ~seed:7 crash_config in
  match
    List.find_opt (fun e -> e.Engine.Trace.kind = Engine.Trace.Resume) r.events
  with
  | None -> Alcotest.fail "no resume event"
  | Some e ->
      Alcotest.(check bool)
        ("resume detail has offset and latency: " ^ e.Engine.Trace.detail)
        true
        (Scanf.sscanf_opt e.Engine.Trace.detail "offset=%d recovered_in=%fs"
           (fun off lat -> off >= 0 && off mod 498 = 0 && lat > 0.)
        = Some true)

let test_exhausts_with_zero_budget () =
  let r = X.run ~seed:7 { crash_config with max_rebuilds = 0 } in
  Alcotest.(check string) "exhausted" "exhausted:rebuild-budget" (outcome r);
  Alcotest.(check int) "no rebuild attempted" 0 r.rebuilds;
  Alcotest.(check bool) "partial delivery only" true
    (r.delivered_bytes < Engine.Units.kib 64);
  (* Terminal in bounded simulated time, not parked until the horizon. *)
  Alcotest.(check bool) "not timed out" true ((session r).outcome <> X.Timed_out);
  let kinds = kinds_of r.events in
  Alcotest.(check bool) "exhausted event recorded" true
    (List.mem Engine.Trace.Exhausted kinds)

let test_uniform_selection_recovers () =
  let r =
    X.run ~seed:9 { crash_config with selection = Tor_model.Directory.Uniform }
  in
  Alcotest.(check string) "completed" "completed" (outcome r);
  Alcotest.(check int) "all bytes" (Engine.Units.kib 64) r.delivered_bytes

let test_guard_crash_recovers () =
  let r = X.run ~seed:11 { crash_config with crash_position = 1 } in
  Alcotest.(check string) "completed" "completed" (outcome r);
  Alcotest.(check int) "no duplicates" 0 r.duplicates

(* A crashed guard's own hop sender must die with it.  If it kept its
   retransmission timer, it would be the one to exhaust its budget and
   the session would blame hop 1 (guard -> middle): it would exclude
   the live middle relay, rebuild through the dead guard and wait out a
   build timeout before routing around it.  The default 512 KiB
   transfer of [torsim recover --crash-at 0.3 --crash-position 1
   --seed 42]. *)
let test_guard_crash_blames_the_guard () =
  let first = ref None in
  let r =
    X.run ~seed:42
      ~probe:(fun _ _ d ->
        if !first = None then first := Some (Backtap.Transfer.circuit d))
      { X.recovery_config with
        crash_at = Some (Engine.Time.ms 300);
        crash_position = 1;
      }
  in
  Alcotest.(check string) "completed" "completed" (outcome r);
  Alcotest.(check int) "one rebuild" 1 r.rebuilds;
  match !first with
  | None -> Alcotest.fail "no circuit deployed"
  | Some c -> (
      match c.Tor_model.Circuit.relays with
      | guard :: middle :: _ ->
          let excluded = (session r).excluded in
          Alcotest.(check bool) "the crashed guard is excluded" true
            (List.mem guard.Tor_model.Relay_info.node excluded);
          Alcotest.(check bool) "the live middle relay is not excluded" false
            (List.mem middle.Tor_model.Relay_info.node excluded)
      | _ -> Alcotest.fail "first circuit has fewer than two relays")

let test_deterministic_across_jobs () =
  let tasks =
    [ (7, crash_config); (8, crash_config);
      (9, { crash_config with selection = Tor_model.Directory.Uniform }) ]
  in
  (* Structural equality covers every field, including the full trace
     event list — ordering must not depend on the pool. *)
  Test_util.check_jobs_deterministic (fun jobs ->
      X.run_many ~jobs tasks)

let test_compare_strategies_paired () =
  let c = Workload.Experiment.compare (module X) ~seed:7 crash_config in
  (* Both face the same crash schedule; both must finish the transfer. *)
  List.iter
    (fun (label, (r : X.result)) ->
      Alcotest.(check string) (label ^ " completed") "completed" (outcome r);
      Alcotest.(check int) (label ^ " all bytes") (Engine.Units.kib 64)
        r.delivered_bytes;
      Alcotest.(check int) (label ^ " no duplicates") 0 r.duplicates)
    [ ("circuitstart", c.circuit_start); ("slowstart", c.slow_start) ];
  (* The crash hits the same relay at the same instant in both runs. *)
  let crash_event r =
    List.find_opt
      (fun e -> e.Engine.Trace.kind = Engine.Trace.Fault)
      r.X.events
  in
  match (crash_event c.circuit_start, crash_event c.slow_start) with
  | Some a, Some b ->
      Alcotest.(check string) "same victim" a.Engine.Trace.subject
        b.Engine.Trace.subject;
      Alcotest.(check bool) "same instant" true
        (a.Engine.Trace.time = b.Engine.Trace.time)
  | _ -> Alcotest.fail "crash event missing"

let test_config_validation () =
  let bad mutate msg =
    match X.validate_config (mutate X.recovery_config) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("validated: " ^ msg)
  in
  bad (fun c -> { c with relay_count = 3 }) "relay_count = hops";
  bad (fun c -> { c with crash_position = 0 }) "crash_position 0";
  bad (fun c -> { c with crash_position = 4 }) "crash_position > hops";
  bad (fun c -> { c with max_rebuilds = -1 }) "negative budget";
  bad (fun c -> { c with transfer_bytes = 0 }) "empty transfer"

let () =
  Alcotest.run "recovery"
    [
      ( "session",
        [
          Alcotest.test_case "clean run never rebuilds" `Quick
            test_clean_run_never_rebuilds;
          Alcotest.test_case "recovers after crash" `Quick
            test_session_recovers_after_crash;
          Alcotest.test_case "resume event carries offset" `Quick
            test_resume_event_carries_offset;
          Alcotest.test_case "exhausts with zero budget" `Quick
            test_exhausts_with_zero_budget;
          Alcotest.test_case "uniform selection recovers" `Quick
            test_uniform_selection_recovers;
          Alcotest.test_case "guard crash recovers" `Quick
            test_guard_crash_recovers;
          Alcotest.test_case "guard crash blames the guard" `Quick
            test_guard_crash_blames_the_guard;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "deterministic across jobs" `Slow
            test_deterministic_across_jobs;
          Alcotest.test_case "paired comparison" `Slow
            test_compare_strategies_paired;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
    ]
