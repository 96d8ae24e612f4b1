(* lib/check: the scenario codec, deterministic sampling, the oracles
   on clean runs, and the acceptance criterion for the whole layer —
   deliberately reintroducing the PR-4 stale wire-departure bug (by
   flipping [Backtap.Hop_sender.unsafe_disable_wire_floor]) must make
   the incarnation oracle fail, and the failure must shrink to a
   replayable one-line reproducer. *)

let selection = Check.Oracle.all
let check sc = Check.Harness.check_scenario ~selection sc

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Scenario codec and sampling *)

let prop_scenario_round_trip =
  QCheck2.Test.make ~name:"Scenario.of_string inverts to_string" ~count:150
    Check.Scenario.gen (fun sc ->
      match Check.Scenario.of_string (Check.Scenario.to_string sc) with
      | Ok sc' -> Check.Scenario.equal sc sc'
      | Error _ -> false)

let test_of_string_rejects_garbage () =
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" line)
        true
        (Result.is_error (Check.Scenario.of_string line)))
    [ ""; "k=x seed=1"; "seed=1 relays=3"; "k=f seed=zzz relays=3" ]

let test_of_string_rejects_zero_shards () =
  (* There is one round-level engine and it takes at least one shard:
     a line asking for shards=0 (or fewer) is a parse error, while a
     line without the key means one shard. *)
  let line =
    "k=n seed=7 relays=8 pos=1 bytes=8192 loss=0 burst=0 odown=-1 oup=-1 \
     crash=-1 queue=0 strat=cs bn=1000 fast=2000 ep=100000 rebuilds=3 sess=6 \
     ocirc=0 okib=0 arr=20 lifet=30"
  in
  (match Check.Scenario.of_string line with
  | Ok sc -> Alcotest.(check int) "missing shards means 1" 1 sc.Check.Scenario.shards
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%s rejected" bad)
        true
        (Result.is_error (Check.Scenario.of_string (line ^ " " ^ bad))))
    [ "shards=0"; "shards=-1" ]

let test_generate_deterministic () =
  for index = 0 to 9 do
    Alcotest.(check bool) "same (seed, index), same scenario" true
      (Check.Scenario.equal
         (Check.Scenario.generate ~seed:42 ~index ())
         (Check.Scenario.generate ~seed:42 ~index ()))
  done;
  let sample seed =
    List.init 10 (fun index -> Check.Scenario.generate ~seed ~index ())
  in
  Alcotest.(check bool) "indices vary" true
    (List.length (List.sort_uniq compare (sample 42)) > 1);
  Alcotest.(check bool) "seeds vary" true (sample 42 <> sample 43)

let test_shrink_candidates_simplify () =
  let sc = Check.Scenario.generate ~seed:42 ~index:0 () in
  List.iter
    (fun c ->
      Alcotest.(check bool) "candidate differs from parent" true
        (not (Check.Scenario.equal c sc)))
    (Check.Scenario.shrink_candidates sc)

let test_selection_parsing () =
  (match Check.Oracle.selection_of_string "all" with
  | Ok sel -> Alcotest.(check string) "all" "all" (Check.Oracle.selection_to_string sel)
  | Error e -> Alcotest.fail e);
  (match Check.Oracle.selection_of_string "clock, cwnd" with
  | Ok sel ->
      Alcotest.(check string) "subset" "clock,cwnd"
        (Check.Oracle.selection_to_string sel)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "unknown oracle rejected" true
    (Result.is_error (Check.Oracle.selection_of_string "clock,bogus"))

(* ------------------------------------------------------------------ *)
(* Clean runs under full oracles *)

let test_clean_scenarios_pass () =
  for index = 0 to 3 do
    let sc = Check.Scenario.generate ~seed:42 ~index () in
    match check sc with
    | Ok _ -> ()
    | Error reason ->
        Alcotest.fail
          (Printf.sprintf "scenario #%d (%s) failed: %s" index
             (Check.Scenario.to_string sc) reason)
  done

let test_harness_run_smoke () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let report = Check.Harness.run ~selection ~runs:5 ~seed:7 ppf in
  Format.pp_print_flush ppf ();
  Alcotest.(check int) "5 scenarios, no failures" 0
    (List.length report.Check.Harness.failures);
  Alcotest.(check bool) "summary line printed" true
    (contains ~needle:"5/5 scenarios passed" (Buffer.contents buf))

let test_replay_round_trip () =
  let sc = Check.Scenario.generate ~seed:42 ~index:1 () in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  (match Check.Harness.replay ~selection (Check.Scenario.to_string sc) ppf with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "clean scenario failed on replay"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "garbage line is a parse error" true
    (Result.is_error (Check.Harness.replay ~selection "not a scenario" ppf))

let test_replay_rejects_invalid_config () =
  (* Parses fine, but recovery needs relays > hops: the replay must
     answer with a friendly one-line error, not an exception (torsim
     maps the [Error] to a nonzero exit). *)
  let line =
    "k=r seed=1 relays=2 pos=1 bytes=8192 loss=0 burst=0 odown=-1 oup=-1 \
     crash=100 queue=0 strat=cs bn=1000 fast=2000 ep=1000 rebuilds=3"
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  match Check.Harness.replay ~selection line ppf with
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "friendly message in: %s" msg)
        true
        (contains ~needle:"invalid scenario" msg)
  | Ok _ -> Alcotest.fail "invalid config was not rejected"

let test_old_recovery_line_replays () =
  (* Recovery scenarios now run the session world's crash preset; a
     recovery reproducer line written before that still parses and
     replays. *)
  let line =
    "k=r seed=5 relays=5 pos=2 bytes=16384 loss=0 burst=0 odown=-1 oup=-1 \
     crash=200 queue=0 strat=cs bn=1000 fast=2000 ep=100000 rebuilds=3"
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  match Check.Harness.replay ~selection line ppf with
  | Ok true -> ()
  | Ok false -> Alcotest.fail ("old recovery line failed: " ^ Buffer.contents buf)
  | Error e -> Alcotest.fail e

let test_of_string_accepts_pre_overload_lines () =
  (* Reproducer lines written before the overload fields existed must
     keep parsing, with the inert defaults. *)
  let line =
    "k=f seed=1 relays=2 pos=1 bytes=16384 loss=0 burst=0 odown=-1 oup=-1 \
     crash=-1 queue=0 strat=cs bn=1000 fast=2000 ep=16 rebuilds=3"
  in
  match Check.Scenario.of_string line with
  | Ok sc ->
      Alcotest.(check int) "sessions default" 1 sc.Check.Scenario.sessions;
      Alcotest.(check int) "ocirc default" 0 sc.Check.Scenario.oload_circuits;
      Alcotest.(check int) "okib default" 0 sc.Check.Scenario.oload_kib
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Acceptance criterion: the reintroduced PR-4 bug is caught *)

(* A scenario built to manufacture stale wire departures: a crawling
   16 kbit/s client access link serializes one envelope in ~260 ms, so
   the second cell of the first round outlives the 500 ms initial RTO
   while still queued — the spurious retransmit, the recycle on its
   feedback and the reuse by the next cell reproduce exactly the PR-4
   shape.  (It must be the sender's own access link: a slow relay is
   starved by its equally slow downlink and never builds that queue.) *)
let stale_prone =
  {
    Check.Scenario.kind = Check.Scenario.Faults;
    seed = 1;
    relays = 2;
    position = 1;
    bytes = 16 * 1024;
    loss_ppm = 0;
    burst = false;
    outage_ms = None;
    crash_ms = None;
    queue_cells = 0;
    strategy = Circuitstart.Controller.Circuit_start;
    bottleneck_kbps = 1000;
    fast_kbps = 2000;
    endpoint_kbps = 16;
    max_rebuilds = 3;
    sessions = 1;
    oload_circuits = 0;
    oload_kib = 0;
    arrival_ms = 0;
    lifet = 0;
    leave_pm = 0;
    join_pm = 0;
    crashpct = 0;
    grace_ms = 0;
    epoch_ms = 0;
    spares = 0;
    shards = 1;
  }

(* With the guard disabled, find a scenario the oracles reject: the
   crafted one first, then the sampled population as a fallback. *)
let find_failing () =
  if Result.is_error (check stale_prone) then Some stale_prone
  else
    let rec go index =
      if index >= 40 then None
      else
        let sc = Check.Scenario.generate ~seed:42 ~index () in
        if Result.is_error (check sc) then Some sc else go (index + 1)
    in
    go 0

let test_reintroduced_stale_bug_is_caught () =
  Backtap.Hop_sender.unsafe_disable_wire_floor := true;
  let line =
    Fun.protect
      ~finally:(fun () -> Backtap.Hop_sender.unsafe_disable_wire_floor := false)
      (fun () ->
        match find_failing () with
        | None ->
            Alcotest.fail
              "no scenario tripped the oracles with the wire_floor guard off"
        | Some sc ->
            (match check sc with
            | Ok _ -> Alcotest.fail "scenario stopped failing on re-run"
            | Error reason ->
                Alcotest.(check bool)
                  (Printf.sprintf "incarnation oracle named in: %s" reason)
                  true
                  (contains ~needle:"incarnation" reason));
            (* The failure shrinks to a line that still fails on replay. *)
            let shrunk = Check.Harness.shrink ~selection sc in
            let line = Check.Scenario.to_string shrunk in
            let buf = Buffer.create 256 in
            let ppf = Format.formatter_of_buffer buf in
            (match Check.Harness.replay ~selection line ppf with
            | Ok false -> ()
            | Ok true -> Alcotest.fail "shrunk reproducer passed on replay"
            | Error e -> Alcotest.fail e);
            line)
  in
  (* Guard restored: the very same reproducer line is law-abiding. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  match Check.Harness.replay ~selection line ppf with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "reproducer still fails with the guard restored"
  | Error e -> Alcotest.fail e

(* Acceptance criterion for the overload layer, mirroring the PR-4
   test: disabling budget enforcement ([Switchboard.
   unsafe_disable_budget] keeps the accounting but stops refusing and
   OOM-killing) must make the budget oracle fail on a budgeted flash
   crowd, and the failure must shrink to a replayable reproducer. *)
let budget_prone =
  {
    Check.Scenario.kind = Check.Scenario.Overload;
    seed = 3;
    relays = 4;
    position = 1;
    bytes = 32 * 1024;
    loss_ppm = 0;
    burst = false;
    outage_ms = None;
    crash_ms = None;
    queue_cells = 0;
    strategy = Circuitstart.Controller.Circuit_start;
    bottleneck_kbps = 1000;
    fast_kbps = 2000;
    endpoint_kbps = 100_000;
    max_rebuilds = 3;
    sessions = 4;
    oload_circuits = 0;
    oload_kib = 8;  (* 8 KiB: a doubling window alone blows past it *)
    arrival_ms = 20;
    lifet = 0;
    leave_pm = 0;
    join_pm = 0;
    crashpct = 0;
    grace_ms = 0;
    epoch_ms = 0;
    spares = 0;
    shards = 1;
  }

let find_failing_budget () =
  if Result.is_error (check budget_prone) then Some budget_prone
  else
    let rec go index =
      if index >= 40 then None
      else
        let sc = Check.Scenario.generate ~seed:42 ~index () in
        if
          sc.Check.Scenario.kind = Check.Scenario.Overload
          && Result.is_error (check sc)
        then Some sc
        else go (index + 1)
    in
    go 0

let test_disabled_budget_is_caught () =
  Tor_model.Switchboard.unsafe_disable_budget := true;
  let line =
    Fun.protect
      ~finally:(fun () -> Tor_model.Switchboard.unsafe_disable_budget := false)
      (fun () ->
        match find_failing_budget () with
        | None ->
            Alcotest.fail
              "no scenario tripped the oracles with budget enforcement off"
        | Some sc ->
            (match check sc with
            | Ok _ -> Alcotest.fail "scenario stopped failing on re-run"
            | Error reason ->
                Alcotest.(check bool)
                  (Printf.sprintf "budget oracle named in: %s" reason)
                  true
                  (contains ~needle:"budget" reason));
            let shrunk = Check.Harness.shrink ~selection sc in
            let line = Check.Scenario.to_string shrunk in
            let buf = Buffer.create 256 in
            let ppf = Format.formatter_of_buffer buf in
            (match Check.Harness.replay ~selection line ppf with
            | Ok false -> ()
            | Ok true -> Alcotest.fail "shrunk reproducer passed on replay"
            | Error e -> Alcotest.fail e);
            line)
  in
  (* Enforcement restored: the very same reproducer is law-abiding. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  match Check.Harness.replay ~selection line ppf with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "reproducer still fails with enforcement restored"
  | Error e -> Alcotest.fail e

(* Acceptance criterion for the predictive controller, mirroring the
   PR-4 test: breaking the receding-horizon discipline (flipping
   [Circuitstart.Controller.unsafe_disable_plan_bounds] makes a commit
   take the plan's *last* step instead of its first) must make the
   cwnd-law oracle fail on a predictive scenario, and the failure must
   shrink to a replayable reproducer.  The flip is invisible while
   every plan is flat (a target one step away plans [t; t; ...]), so
   the crafted scenario needs a deep ramp overshoot: the exit then
   plans a multi-step descent toward W* and the flipped commit skips
   straight to the tail. *)
let plan_prone =
  { stale_prone with
    Check.Scenario.strategy = Circuitstart.Controller.Predictive;
    seed = 2;
    bytes = 64 * 1024;
    bottleneck_kbps = 500;
    fast_kbps = 10_000;
    endpoint_kbps = 100_000;
  }

let find_failing_plan () =
  if Result.is_error (check plan_prone) then Some plan_prone
  else
    let rec go index =
      if index >= 40 then None
      else
        let sc =
          Check.Scenario.generate ~strat:Circuitstart.Controller.Predictive ~seed:42 ~index ()
        in
        if Result.is_error (check sc) then Some sc else go (index + 1)
    in
    go 0

let test_disabled_plan_bounds_is_caught () =
  Circuitstart.Controller.unsafe_disable_plan_bounds := true;
  let line =
    Fun.protect
      ~finally:(fun () ->
        Circuitstart.Controller.unsafe_disable_plan_bounds := false)
      (fun () ->
        match find_failing_plan () with
        | None ->
            Alcotest.fail
              "no scenario tripped the oracles with plan bounds off"
        | Some sc ->
            (match check sc with
            | Ok _ -> Alcotest.fail "scenario stopped failing on re-run"
            | Error reason ->
                Alcotest.(check bool)
                  (Printf.sprintf "plan law named in: %s" reason)
                  true
                  (contains ~needle:"predictive" reason));
            (* The failure shrinks to a line that still fails on replay. *)
            let shrunk = Check.Harness.shrink ~selection sc in
            let line = Check.Scenario.to_string shrunk in
            let buf = Buffer.create 256 in
            let ppf = Format.formatter_of_buffer buf in
            (match Check.Harness.replay ~selection line ppf with
            | Ok false -> ()
            | Ok true -> Alcotest.fail "shrunk reproducer passed on replay"
            | Error e -> Alcotest.fail e);
            line)
  in
  (* Discipline restored: the very same reproducer is law-abiding. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  match Check.Harness.replay ~selection line ppf with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "reproducer still fails with the guard restored"
  | Error e -> Alcotest.fail e

(* The --strategy dimension of the codec: "strat=pr" lines round-trip
   (the round-trip property already samples Pr), the CLI spellings
   parse through the one strategy parser, a replay line cannot name a
   fixed window, and a pinned generation stream really is the unpinned
   stream with only the strategy overridden. *)
let test_strategy_dimension () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "%S parses" s)
        true
        (Result.to_option (Workload.Experiment.strategy_of_string s) = want))
    [
      ("cs", Some Circuitstart.Controller.Circuit_start);
      ("circuitstart", Some Circuitstart.Controller.Circuit_start);
      ("ss", Some Circuitstart.Controller.Slow_start);
      ("slowstart", Some Circuitstart.Controller.Slow_start);
      ("pr", Some Circuitstart.Controller.Predictive);
      ("predictive", Some Circuitstart.Controller.Predictive);
      ("fixed:8", Some (Circuitstart.Controller.Fixed 8));
      ("fixed:0", None);
      ("bogus", None);
    ];
  let fixed_line =
    Check.Scenario.to_string (Check.Scenario.generate ~seed:42 ~index:0 ())
    |> String.split_on_char ' '
    |> List.map (fun f ->
           if String.starts_with ~prefix:"strat=" f then "strat=fixed:8" else f)
    |> String.concat " "
  in
  Alcotest.(check bool) "a replay line cannot name a fixed window" true
    (Result.is_error (Check.Scenario.of_string fixed_line));
  for index = 0 to 9 do
    let free = Check.Scenario.generate ~seed:42 ~index () in
    let pinned =
      Check.Scenario.generate ~strat:Circuitstart.Controller.Predictive ~seed:42 ~index ()
    in
    Alcotest.(check bool) "pinned strategy" true
      (pinned.Check.Scenario.strategy = Circuitstart.Controller.Predictive);
    Alcotest.(check bool) "same world otherwise" true
      (Check.Scenario.equal pinned
         { free with Check.Scenario.strategy = Circuitstart.Controller.Predictive })
  done

(* The oracles in the harness agree with the per-jobs differential used
   by the pool tests: run one scenario's config through the shared
   jobs-determinism helper as well, tying the two harnesses together. *)
let test_scenario_config_jobs_deterministic () =
  let sc = Check.Scenario.generate ~seed:42 ~index:2 () in
  match sc.Check.Scenario.kind with
  | Check.Scenario.Faults ->
      Test_util.check_jobs_deterministic (fun jobs ->
          Workload.Fault_experiment.run_many ~jobs
            [ (sc.Check.Scenario.seed, Check.Scenario.fault_config sc) ])
  | Check.Scenario.Recovery ->
      Test_util.check_jobs_deterministic (fun jobs ->
          Workload.Overload_experiment.run_many ~jobs
            [ (sc.Check.Scenario.seed, Check.Scenario.recovery_config sc) ])
  | Check.Scenario.Overload ->
      Test_util.check_jobs_deterministic (fun jobs ->
          Workload.Overload_experiment.run_many ~jobs
            [ (sc.Check.Scenario.seed, Check.Scenario.overload_config sc) ])
  | Check.Scenario.Network ->
      Test_util.check_jobs_deterministic (fun jobs ->
          Workload.Network_experiment.run_many ~jobs
            [ (sc.Check.Scenario.seed, Check.Scenario.network_config sc) ])
  | Check.Scenario.Churn ->
      Test_util.check_jobs_deterministic (fun jobs ->
          Workload.Network_experiment.run_many ~jobs
            [ (sc.Check.Scenario.seed, Check.Scenario.churn_config sc) ])

let () =
  Alcotest.run "check"
    [
      ( "scenario",
        [
          QCheck_alcotest.to_alcotest prop_scenario_round_trip;
          Alcotest.test_case "garbage rejected" `Quick test_of_string_rejects_garbage;
          Alcotest.test_case "shards=0 rejected" `Quick
            test_of_string_rejects_zero_shards;
          Alcotest.test_case "generation deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "shrink candidates differ" `Quick
            test_shrink_candidates_simplify;
          Alcotest.test_case "oracle selection parsing" `Quick test_selection_parsing;
        ] );
      ( "harness",
        [
          Alcotest.test_case "clean scenarios pass" `Slow test_clean_scenarios_pass;
          Alcotest.test_case "run smoke" `Slow test_harness_run_smoke;
          Alcotest.test_case "replay round trip" `Slow test_replay_round_trip;
          Alcotest.test_case "replay rejects invalid config" `Quick
            test_replay_rejects_invalid_config;
          Alcotest.test_case "pre-overload lines parse" `Quick
            test_of_string_accepts_pre_overload_lines;
          Alcotest.test_case "old recovery line replays" `Quick
            test_old_recovery_line_replays;
          Alcotest.test_case "strategy dimension" `Quick test_strategy_dimension;
          Alcotest.test_case "jobs-deterministic config" `Slow
            test_scenario_config_jobs_deterministic;
        ] );
      ( "bug_detection",
        [
          Alcotest.test_case "reintroduced wire_floor bug is caught" `Slow
            test_reintroduced_stale_bug_is_caught;
          Alcotest.test_case "disabled budget enforcement is caught" `Slow
            test_disabled_budget_is_caught;
          Alcotest.test_case "disabled plan bounds is caught" `Slow
            test_disabled_plan_bounds_is_caught;
        ] );
    ]
