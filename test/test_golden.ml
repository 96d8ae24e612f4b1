(* Golden-trace snapshots: one fault run, one recovery run and one cwnd
   trace per startup strategy, committed as CSV fixtures under
   [test/golden/], plus the stdout of small fixed-seed [torsim] runs of
   every paired subcommand as [cli_*.txt].  The check is
   byte-identity — any drift in event ordering, timestamps or the CSV
   shape surfaces as a diff against a committed file, which is exactly
   the regression signal a deterministic simulator owes its users.

   To regenerate after a deliberate behaviour change:

     CIRCUITSTART_UPDATE_GOLDEN=test/golden dune exec test/test_golden.exe

   The variable names the source directory to rewrite; commit the
   resulting diff alongside the change that caused it. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let fault_run () =
  Workload.Fault_experiment.run ~seed:Test_util.golden_seed
    Test_util.golden_fault_config

let recovery_run () =
  Workload.Recovery_experiment.run ~seed:Test_util.golden_seed
    Test_util.golden_recovery_config

let trace_run config () =
  Workload.Trace_experiment.run ~seed:Test_util.golden_seed config

let trace_fixture config () =
  Test_util.cwnd_csv (trace_run config ()).Workload.Trace_experiment.source_cwnd

(* stdout of one [torsim] run; a nonzero exit fails the fixture. *)
let cli_fixture args () =
  let out = Filename.temp_file "torsim" ".txt" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>/dev/null" (Test_util.torsim_exe ()) args
         out)
  in
  let text = read_file out in
  Sys.remove out;
  if rc <> 0 then Alcotest.failf "torsim %s exited %d" args rc;
  text

let fixtures =
  [
    ( "faults_events.csv",
      fun () ->
        Test_util.events_csv (fault_run ()).Workload.Fault_experiment.events );
    ( "recovery_events.csv",
      fun () ->
        Test_util.events_csv
          (recovery_run ()).Workload.Recovery_experiment.events );
    (* One cwnd trace per startup strategy over the same seeded world, so
       a behaviour change in one controller diffs exactly one fixture. *)
    ("trace_cwnd.csv", trace_fixture Test_util.golden_trace_config);
    ( "trace_cwnd_slowstart.csv",
      trace_fixture Test_util.golden_trace_config_slowstart );
    ( "trace_cwnd_predictive.csv",
      trace_fixture Test_util.golden_trace_config_predictive );
    (* Every paired subcommand's table, so a refactor of the CLI's
       dispatch or rendering cannot change what a user sees. *)
    ("cli_faults.txt", cli_fixture "faults --loss 0.01 --kib 32 --seed 7");
    ( "cli_recover.txt",
      cli_fixture "recover --crash-at 0.2 --kib 32 --seed 7" );
    ("cli_overload.txt", cli_fixture "overload --sessions 6 --kib 16 --seed 7");
    ( "cli_network.txt",
      cli_fixture "network --relays 40 --circuits 100 --lifetimes 500 --seed 7"
    );
    ( "cli_network_predictive.txt",
      cli_fixture
        "network --relays 40 --circuits 100 --lifetimes 500 --seed 7 \
         --strategy predictive" );
    ( "cli_churn_scale.txt",
      cli_fixture
        "churn-scale --relays 40 --circuits 100 --lifetimes 500 --seed 7" );
    (* The packet-level star (Figure 1c), one run per transport: its
       [events=] and [max queue=] fields expose any drift in the event
       order of links, hop senders and controllers. *)
    ( "cli_cdf_cs.txt",
      cli_fixture "cdf --circuits 10 --relays 12 --kib 64 --seed 7 --transport cs" );
    ( "cli_cdf_ss.txt",
      cli_fixture "cdf --circuits 10 --relays 12 --kib 64 --seed 7 --transport ss" );
    ( "cli_cdf_pr.txt",
      cli_fixture "cdf --circuits 10 --relays 12 --kib 64 --seed 7 --transport pr" );
    ( "cli_cdf_sendme.txt",
      cli_fixture
        "cdf --circuits 10 --relays 12 --kib 64 --seed 7 --transport sendme" );
  ]

let update_dir = Sys.getenv_opt "CIRCUITSTART_UPDATE_GOLDEN"

let test_fixture (name, render) () =
  let got = render () in
  match update_dir with
  | Some dir ->
      let path = Filename.concat dir name in
      write_file path got;
      Printf.printf "updated %s (%d bytes)\n%!" path (String.length got)
  | None ->
      (* dune runs the test in its build directory; the (deps) clause of
         test/dune copies the fixtures next to the executable. *)
      let want = read_file (Filename.concat "golden" name) in
      Alcotest.(check string) (name ^ " is byte-identical") want got

(* The committed CSV must also parse back into the exact events it was
   rendered from — [events_of_csv] inverts [events_to_csv] at full
   nanosecond resolution, so replaying a fixture is lossless. *)
let test_events_round_trip run project () =
  let events = project (run ()) in
  Alcotest.(check bool) "events survive the CSV round trip" true
    (Engine.Trace.events_of_csv (Test_util.events_csv events) = events);
  Alcotest.(check bool) "the run actually logged events" true (events <> [])

let () =
  Alcotest.run "golden"
    [
      ( "fixtures",
        List.map
          (fun (name, render) ->
            Alcotest.test_case name `Slow (test_fixture (name, render)))
          fixtures );
      ( "round_trip",
        [
          Alcotest.test_case "fault events" `Slow
            (test_events_round_trip fault_run (fun r ->
                 r.Workload.Fault_experiment.events));
          Alcotest.test_case "recovery events" `Slow
            (test_events_round_trip recovery_run (fun r ->
                 r.Workload.Recovery_experiment.events));
        ] );
    ]
