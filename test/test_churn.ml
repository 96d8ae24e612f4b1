(* Tests for relay churn, which is modelled at round level only: the
   churn schedule in the network experiment (leave/join hazards,
   crashes, drains, directory epochs), the churn oracles in the check
   harness (including the guard-flip acceptance test) and the
   churn-scale CLI. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Round-level churn in the network experiment *)

let churny_config =
  {
    Workload.Network_experiment.default_config with
    Workload.Network_experiment.relays = 30;
    slots = 120;
    target_lifetimes = 1_500;
    mean_think = Engine.Time.ms 50;
    leave_hazard = 0.05;
    join_hazard = 0.2;
    crash_fraction = 0.5;
    drain_grace = Engine.Time.ms 1_000;
    epoch_period = Engine.Time.ms 2_000;
    churn_tick = Engine.Time.ms 250;
    spare_relays = 3;
  }

let test_network_churn_counters_live () =
  let r = Workload.Network_experiment.run ~seed:11 churny_config in
  Test_util.check_stops_at_goal churny_config r;
  Alcotest.(check bool)
    (Printf.sprintf "departures (%d)" r.churn_departs)
    true (r.churn_departs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "epochs (%d)" r.churn_epochs)
    true (r.churn_epochs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "kills (%d)" r.churn_kills)
    true (r.churn_kills > 0);
  Alcotest.(check bool)
    (Printf.sprintf "kills resumed (%d/%d)" r.resumed r.churn_kills)
    true (r.resumed > 0 && r.resumed <= r.churn_kills);
  (* The oracles' counters: a healthy run never extends through a
     departed relay and never leaves departure residue. *)
  Alcotest.(check int) "no rounds through down relays" 0 r.rounds_through_down;
  Alcotest.(check int) "no departure residue" 0 r.depart_residue;
  Alcotest.(check int) "no orphaned circuits" 0 r.orphaned_circuits;
  Alcotest.(check int) "no orphaned cells" 0 r.orphaned_cells

let test_network_zero_hazard_is_churn_free () =
  let r =
    Workload.Network_experiment.run ~seed:11
      { churny_config with leave_hazard = 0.; join_hazard = 0.; spare_relays = 0 }
  in
  Alcotest.(check int) "no departs" 0 r.churn_departs;
  Alcotest.(check int) "no epochs" 0 r.churn_epochs;
  Alcotest.(check int) "no kills" 0 r.churn_kills;
  Alcotest.(check int) "no gone draws" 0 r.gone_draws

let test_network_churn_paired_strategies () =
  let c =
    Workload.Experiment.compare
      (module Workload.Network_experiment)
      ~seed:11 churny_config
  in
  Test_util.check_stops_at_goal churny_config c.circuit_start;
  Test_util.check_stops_at_goal churny_config c.slow_start;
  (* The schedule is seeded identically per strategy run. *)
  Alcotest.(check bool) "both runs churned" true
    (c.circuit_start.churn_departs > 0 && c.slow_start.churn_departs > 0)

(* The one-line summary spells the churn clause with single spaces. *)
let test_network_pp_result_churn_clause () =
  let r = Workload.Network_experiment.run ~seed:11 churny_config in
  Alcotest.(check bool) "run churned" true (r.churn_departs > 0);
  let text = Format.asprintf "%a" Workload.Network_experiment.pp_result r in
  let clause =
    Printf.sprintf "%d restarts, %d epochs, %d kills" r.churn_restarts
      r.churn_epochs r.churn_kills
  in
  Alcotest.(check bool)
    (Printf.sprintf "%S contains %S" text clause)
    true
    (contains ~needle:clause text)

(* ------------------------------------------------------------------ *)
(* Churn scenarios in the check harness *)

let selection = Check.Oracle.all
let check sc = Check.Harness.check_scenario ~selection sc

let churn_prone =
  {
    Check.Scenario.kind = Check.Scenario.Churn;
    seed = 5;
    relays = 10;
    position = 1;
    bytes = 8 * 1024;
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
    sessions = 12;
    oload_circuits = 0;
    oload_kib = 0;
    arrival_ms = 20;
    lifet = 60;
    leave_pm = 300_000;
    join_pm = 400_000;
    crashpct = 50;
    grace_ms = 200;
    epoch_ms = 500;
    spares = 2;
    shards = 1;
  }

let test_churn_scenario_passes_clean () =
  match check churn_prone with
  | Ok _ -> ()
  | Error reason -> Alcotest.fail ("clean churn scenario failed: " ^ reason)

let test_churn_line_round_trips () =
  let line = Check.Scenario.to_string churn_prone in
  match Check.Scenario.of_string line with
  | Ok sc ->
      Alcotest.(check bool) "round trip" true
        (Check.Scenario.equal sc churn_prone)
  | Error e -> Alcotest.fail e

let test_old_lines_default_to_no_churn () =
  (* A pre-churn reproducer line: no lpm/jpm/crashpct/grace/epochms/
     spares keys.  It must parse with inert zeros. *)
  let line =
    "k=n seed=7 relays=8 pos=1 bytes=8192 loss=0 burst=0 odown=-1 oup=-1 \
     crash=-1 queue=0 strat=cs bn=1000 fast=2000 ep=100000 rebuilds=3 sess=6 \
     ocirc=0 okib=0 arr=20 lifet=30"
  in
  match Check.Scenario.of_string line with
  | Ok sc ->
      Alcotest.(check int) "leave_pm defaults 0" 0 sc.Check.Scenario.leave_pm;
      Alcotest.(check int) "spares default 0" 0 sc.Check.Scenario.spares
  | Error e -> Alcotest.fail e

let test_kind_of_string () =
  Alcotest.(check bool) "churn accepted" true
    (Check.Scenario.kind_of_string "churn" = Some Check.Scenario.Churn);
  Alcotest.(check bool) "code accepted" true
    (Check.Scenario.kind_of_string "c" = Some Check.Scenario.Churn);
  Alcotest.(check bool) "garbage rejected" true
    (Check.Scenario.kind_of_string "bogus" = None)

let test_only_kind_generates_that_kind () =
  for index = 0 to 19 do
    let sc =
      Check.Scenario.generate ~only:Check.Scenario.Churn ~seed:42 ~index ()
    in
    Alcotest.(check bool) "kind pinned" true
      (sc.Check.Scenario.kind = Check.Scenario.Churn);
    Alcotest.(check bool) "churn knobs live" true (sc.Check.Scenario.leave_pm > 0)
  done

let find_failing_churn () =
  if Result.is_error (check churn_prone) then Some churn_prone
  else
    let rec go index =
      if index >= 40 then None
      else
        let sc =
          Check.Scenario.generate ~only:Check.Scenario.Churn ~seed:42 ~index ()
        in
        if Result.is_error (check sc) then Some sc else go (index + 1)
    in
    go 0

(* The acceptance criterion: disabling the departure kill sweep
   ([unsafe_disable_churn_kill] keeps the schedule but stops tearing
   down the victims' circuits) must make the churn oracles fail, and
   the failure must shrink to a replayable one-line reproducer. *)
let test_disabled_churn_kill_is_caught () =
  Workload.Network_experiment.unsafe_disable_churn_kill := true;
  let line =
    Fun.protect
      ~finally:(fun () ->
        Workload.Network_experiment.unsafe_disable_churn_kill := false)
      (fun () ->
        match find_failing_churn () with
        | None ->
            Alcotest.fail "no scenario tripped the oracles with the kill \
                           sweep off"
        | Some sc ->
            (match check sc with
            | Ok _ -> Alcotest.fail "scenario stopped failing on re-run"
            | Error reason ->
                Alcotest.(check bool)
                  (Printf.sprintf "churn/drain oracle named in: %s" reason)
                  true
                  (contains ~needle:"churn" reason
                  || contains ~needle:"drain" reason
                  || contains ~needle:"departed" reason));
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
  (* Sweep restored: the very same reproducer line is law-abiding. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  match Check.Harness.replay ~selection line ppf with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "reproducer still fails with the sweep restored"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* torsim CLI: numeric-flag validation (exercised as a subprocess, so
   the friendly error + nonzero exit is what a user actually gets) *)

let torsim args =
  Sys.command
    (Printf.sprintf "%s %s >/dev/null 2>&1" (Test_util.torsim_exe ()) args)

let test_cli_rejects_bad_numeric_flags () =
  List.iter
    (fun args ->
      Alcotest.(check bool)
        (Printf.sprintf "torsim %s exits nonzero" args)
        true
        (torsim args <> 0))
    [
      "network --relays 0";
      "network --relays=-1";
      "network --budget-kib=-3";
      "network --lifetimes=-5";
      "network --think-ms 0";
      "overload --kib 0";
      "overload --max-circuits=-2";
      "overload --arrival-ms 0";
      "churn-scale --crash-fraction 1.5";
      "churn-scale --epoch-ms 0";
      "churn-scale --grace-ms=-1";
      "churn-scale --leave-rate=-0.5";
      "faults --loss 0.1 --burst-loss 0.2";
      "faults --distance 0";
      "faults --loss 1.5";
      "recover --selection bogus";
      "recover --crash-position 0";
      "check --kind bogus";
      "network --shards 0";
      "churn-scale --shards=-1";
    ]

(* Values the simulator itself would reject (a zero rate, a distance
   past the path, a list that is not numbers) must come back as
   cmdliner's usage error — exit 124 and one line on stderr — not as an
   uncaught exception (125) or a bare exit 2. *)
let test_cli_bad_values_are_usage_errors () =
  let err = Filename.temp_file "torsim" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      List.iter
        (fun args ->
          let code =
            Sys.command
              (Printf.sprintf "%s %s >/dev/null 2>%s" (Test_util.torsim_exe ()) args
                 (Filename.quote err))
          in
          Alcotest.(check int) (Printf.sprintf "torsim %s exits 124" args) 124 code;
          let lines =
            In_channel.with_open_text err In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (fun l -> l <> "")
          in
          Alcotest.(check int)
            (Printf.sprintf "torsim %s prints one stderr line" args)
            1 (List.length lines))
        [
          "adaptive --step-mbit 0";
          "trace --bottleneck-mbit 0";
          "optimal --rates 0";
          "optimal --rates 3,x";
          "sweep --param distance --values 9";
          "sweep --param foo";
          "sweep --values 1,x";
          "faults --crash-at=-0.5";
          "faults --outage=-1:2";
          "faults --outage=nan:1";
          "recover --crash-at=-1";
          "recover --crash-at=nan";
          "faults --crash-at=inf";
          (* The round level runs windows of 1..10 000 cells, so a
             fixed window past that would print another window's row
             under its own label. *)
          "network --strategy fixed:20000";
          "churn-scale --strategy fixed:10001";
        ])

let test_cli_churn_scale_runs () =
  Alcotest.(check int) "tiny churn-scale run exits 0" 0
    (torsim
       "churn-scale --relays 10 --circuits 8 --lifetimes 20 --think-ms 20 \
        --seed 3")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "churn"
    [
      ( "network",
        [
          Alcotest.test_case "churn counters live" `Quick
            test_network_churn_counters_live;
          Alcotest.test_case "zero hazard is churn-free" `Quick
            test_network_zero_hazard_is_churn_free;
          Alcotest.test_case "jobs deterministic" `Quick
            (Determinism.check ~runs:Determinism.jobs_runs
               (Determinism.find "churn network sweep"));
          Alcotest.test_case "paired strategies" `Quick
            test_network_churn_paired_strategies;
          Alcotest.test_case "pp_result churn clause" `Quick
            test_network_pp_result_churn_clause;
        ] );
      ( "check",
        [
          Alcotest.test_case "clean scenario passes" `Quick
            test_churn_scenario_passes_clean;
          Alcotest.test_case "line round-trips" `Quick
            test_churn_line_round_trips;
          Alcotest.test_case "old lines default churn-free" `Quick
            test_old_lines_default_to_no_churn;
          Alcotest.test_case "kind_of_string" `Quick test_kind_of_string;
          Alcotest.test_case "--kind pins generation" `Quick
            test_only_kind_generates_that_kind;
          Alcotest.test_case "disabled kill sweep is caught" `Quick
            test_disabled_churn_kill_is_caught;
        ] );
      ( "cli",
        [
          Alcotest.test_case "bad numeric flags rejected" `Quick
            test_cli_rejects_bad_numeric_flags;
          Alcotest.test_case "bad values are one-line usage errors" `Quick
            test_cli_bad_values_are_usage_errors;
          Alcotest.test_case "churn-scale smoke" `Quick
            test_cli_churn_scale_runs;
        ] );
    ]
