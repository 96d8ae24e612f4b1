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
  Workload.Overload_experiment.run ~seed:Test_util.golden_seed
    Test_util.golden_recovery_config

let trace_fixture config () =
  Test_util.cwnd_csv (Workload.Trace_experiment.run config).Workload.Trace_experiment.source_cwnd

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

(* stdout of several [torsim] runs, concatenated in order. *)
let cli_fixtures runs () = String.concat "" (List.map (fun args -> cli_fixture args ()) runs)

(* stdout of one [bench/main.exe] run of [targets] at --jobs 2, with
   its CSVs written to a scratch directory.  The "[csv] <path>" notices
   name that directory, so they are cut. *)
let bench_fixture targets () =
  let dir = Filename.temp_dir "bench" "" in
  let out = Filename.temp_file "bench" ".txt" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s --jobs 2 --out %s > %s 2>/dev/null"
         (Test_util.built_exe "bench/main.exe")
         targets (Filename.quote dir) out)
  in
  let text = read_file out in
  Sys.remove out;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  if rc <> 0 then Alcotest.failf "bench/main.exe %s exited %d" targets rc;
  String.split_on_char '\n' text
  |> List.filter (fun l -> not (String.starts_with ~prefix:"[csv] " l))
  |> String.concat "\n"

(* ------------------------------------------------------------------ *)
(* End-to-end cell latency.  [torsim cdf] does not print it, so these
   runs pin the per-cell departure stamps and their consumption at the
   sink directly: count, mean and max at full float precision. *)

let latency_line name stats =
  Printf.sprintf "%s count=%d mean=%h max=%h\n" name
    (Engine.Stats.Online.count stats)
    (Engine.Stats.Online.mean stats)
    (Engine.Stats.Online.max stats)

let star_latency (label, transport) =
  let config =
    { Workload.Star_experiment.default_config with
      Workload.Star_experiment.transport;
      circuit_count = 10;
      relay_count = 12;
      transfer_bytes = Engine.Units.kib 64;
      seed = 7;
    }
  in
  latency_line ("star/" ^ label)
    (Workload.Star_experiment.run config).Workload.Star_experiment.cell_latency

(* The three-stream world of examples/multi_stream.ml: a 1 MiB download
   and two 64 KiB fetches interleaved over one CircuitStart circuit
   through a 5 Mbit/s middle relay. *)
let multi_stream_latency () =
  let sim = Engine.Sim.create () in
  let b = Workload.Tor_net.builder sim () in
  List.iter
    (fun (name, mbit) ->
      Workload.Tor_net.add_relay b
        { Workload.Relay_gen.nickname = name;
          bandwidth = Engine.Units.Rate.mbit mbit;
          latency = Engine.Time.ms 10;
          flags =
            [ Tor_model.Relay_info.Guard; Tor_model.Relay_info.Exit;
              Tor_model.Relay_info.Fast; Tor_model.Relay_info.Stable ] })
    [ ("guard", 50); ("middle", 5); ("exit", 50) ];
  let endpoint name =
    Workload.Tor_net.add_endpoint b ~name ~rate:(Engine.Units.Rate.mbit 100)
      ~delay:(Engine.Time.ms 10)
  in
  let client = endpoint "client" in
  let server = endpoint "server" in
  let net = Workload.Tor_net.finalize b in
  let circuit =
    Tor_model.Circuit.make
      ~id:(Tor_model.Circuit_id.next (Workload.Tor_net.circuit_ids net))
      ~client
      ~relays:(Tor_model.Directory.relays (Workload.Tor_net.directory net))
      ~server
  in
  let transfer = ref None in
  Tor_model.Circuit_builder.build
    (Workload.Tor_net.switchboard net client)
    circuit
    ~on_done:(function
      | Tor_model.Circuit_builder.Established _ ->
          let d =
            Backtap.Transfer.deploy_streams
              ~node_of:(Workload.Tor_net.backtap_node net)
              ~circuit
              ~streams:
                [ (1, Engine.Units.mib 1); (2, Engine.Units.kib 64);
                  (3, Engine.Units.kib 64) ]
              ~strategy:Circuitstart.Controller.Circuit_start
              ~on_complete:(fun _ -> Engine.Sim.stop sim)
              ()
          in
          Backtap.Transfer.start d;
          transfer := Some d
      | _ -> Alcotest.fail "multi-stream circuit not established")
    ();
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  match !transfer with
  | Some d -> latency_line "multi_stream" (Backtap.Transfer.cell_latency_stats d)
  | None -> Alcotest.fail "multi-stream transfer never deployed"

(* Resumed transfers over a client -> 3 relays -> server star: the
   source and sink start past an already-delivered prefix, so the cells
   on the wire carry sequence numbers that do not start at 0. *)
let resumed_latency () =
  let deploy_on ~name run =
    let sim = Engine.Sim.create () in
    let rate = Engine.Units.Rate.mbit 10 and delay = Engine.Time.ms 5 in
    let topo, _, leaves =
      Netsim.Topology.star sim ~hub:"hub"
        ~leaves:(List.init 5 (fun i -> (Printf.sprintf "l%d" i, rate, delay)))
        ()
    in
    let net = Netsim.Network.create topo in
    let leaves = Array.of_list leaves in
    let bts =
      Array.map
        (fun n -> Backtap.Node.install (Tor_model.Switchboard.install net n))
        leaves
    in
    let relays =
      List.init 3 (fun i ->
          Tor_model.Relay_info.make ~nickname:(Printf.sprintf "r%d" i)
            ~node:leaves.(i + 1) ~bandwidth:rate ~latency:delay ())
    in
    let circuit =
      Tor_model.Circuit.make ~id:(Tor_model.Circuit_id.of_int 0)
        ~client:leaves.(0) ~relays ~server:leaves.(4)
    in
    let node_of n =
      let rec find i =
        if Netsim.Node_id.equal leaves.(i) n then bts.(i) else find (i + 1)
      in
      find 0
    in
    let d = run ~node_of ~circuit in
    Backtap.Transfer.start d;
    Engine.Sim.run sim ~until:(Engine.Time.s 60);
    latency_line name (Backtap.Transfer.cell_latency_stats d)
  in
  deploy_on ~name:"resumed/offset" (fun ~node_of ~circuit ->
      Backtap.Transfer.deploy ~node_of ~circuit ~bytes:(Engine.Units.kib 200)
        ~strategy:Circuitstart.Controller.Circuit_start ~stream_id:5
        ~offset:(100 * Tor_model.Cell.payload_capacity) ())
  ^ deploy_on ~name:"resumed/streams" (fun ~node_of ~circuit ->
        Backtap.Transfer.deploy_streams ~node_of ~circuit
          ~streams:[ (1, Engine.Units.kib 96); (2, Engine.Units.kib 160) ]
          ~offsets:[ (2, 40 * Tor_model.Cell.payload_capacity) ]
          ~strategy:Circuitstart.Controller.Slow_start ())

let cell_latency_fixture () =
  String.concat ""
    (List.map star_latency
       [
         ("cs", Workload.Star_experiment.Backtap Circuitstart.Controller.Circuit_start);
         ("ss", Workload.Star_experiment.Backtap Circuitstart.Controller.Slow_start);
         ("pr", Workload.Star_experiment.Backtap Circuitstart.Controller.Predictive);
         ("sendme", Workload.Star_experiment.Legacy_sendme);
       ])
  ^ multi_stream_latency () ^ resumed_latency ()

(* ------------------------------------------------------------------ *)
(* Consensus-scale axes.  [torsim network]/[churn-scale] tables round
   their numbers; this fixture pins every counter of one small run per
   strategy and shard count with everything switched on that makes a
   step read its clock or shared state: a diurnal think rate (think
   reads [now]), a circuit budget (admissions refused), churn with
   spare relays (kills, resumes, epochs), and [retain_exact]. *)

let network_axes_config strategy shards =
  { Workload.Network_experiment.default_config with
    Workload.Network_experiment.relays = 40;
    slots = 150;
    target_lifetimes = 900;
    budget =
      { Tor_model.Switchboard.no_budget with
        Tor_model.Switchboard.max_circuits = Some 14 };
    mean_think = Engine.Time.ms 200;
    diurnal_amplitude = 0.6;
    diurnal_period = Engine.Time.s 4;
    elephant_fraction = 0.1;
    elephant_cells = 512;
    leave_hazard = 0.05;
    join_hazard = 0.2;
    drain_grace = Engine.Time.ms 500;
    epoch_period = Engine.Time.s 2;
    churn_tick = Engine.Time.ms 250;
    spare_relays = 6;
    strategy;
    retain_exact = true;
    shards;
  }

(* A churn burst: a dozen relays and three spares under hazards high
   enough that most churn ticks complete two or more departures, mixing
   crashes with drain deadlines (the grace is one tick), and some
   circuits run through two hops that depart in the same tick. *)
let network_churn_burst_config strategy shards =
  { Workload.Network_experiment.default_config with
    Workload.Network_experiment.relays = 12;
    slots = 60;
    target_lifetimes = 600;
    mean_think = Engine.Time.ms 200;
    elephant_fraction = 0.1;
    elephant_cells = 256;
    leave_hazard = 1.5;
    join_hazard = 3.0;
    crash_fraction = 0.5;
    drain_grace = Engine.Time.ms 250;
    epoch_period = Engine.Time.s 1;
    churn_tick = Engine.Time.ms 250;
    spare_relays = 3;
    strategy;
    retain_exact = true;
    shards;
  }

let network_line config (label, strategy) shards =
  let r =
    Workload.Network_experiment.run ~seed:Test_util.golden_seed
      (config strategy shards)
  in
  let open Workload.Network_experiment in
  let sketch name s =
    let q p =
      match Engine.Stats.Sketch.quantile_opt s p with
      | Some x -> Printf.sprintf "%h" x
      | None -> "-"
    in
    Printf.sprintf " %s=%d/%s/%s/%h/%h" name (Engine.Stats.Sketch.count s)
      (q 0.5) (q 0.99) (Engine.Stats.Sketch.mean s) (Engine.Stats.Sketch.max s)
  in
  let exact =
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (Array.to_list (Array.map (Printf.sprintf "%h") r.ttlb_exact))))
  in
  Printf.sprintf
    "%s shards=%d completed=%d mice=%d elephants=%d arrivals=%d bulk=%d \
     refused=%d redraws=%d abandoned=%d cells=%d rounds=%d recycles=%d \
     peak=%d orphans=%d/%d departs=%d crashes=%d drains=%d restarts=%d \
     epochs=%d kills=%d resumed=%d gone=%d draining=%d through_down=%d \
     residue=%d end=%d events=%d%s%s%s exact=%d:%s\n"
    label shards r.completed r.mice r.elephants r.arrivals
    r.elephant_arrivals r.refused_arrivals r.admission_redraws r.abandoned
    r.delivered_cells r.rounds r.pool_recycles r.peak_active
    r.orphaned_circuits r.orphaned_cells r.churn_departs r.churn_crashes
    r.churn_drains_completed r.churn_restarts r.churn_epochs r.churn_kills
    r.resumed r.gone_draws r.draining_refusals r.rounds_through_down
    r.depart_residue
    (r.end_time :> int)
    r.wall_events
    (sketch "all" r.ttlb_all)
    (sketch "mice" r.ttlb_mice)
    (sketch "elephants" r.ttlb_elephants)
    (Array.length r.ttlb_exact) exact

let network_fixture ?(strategies =
    [
      ("cs", Circuitstart.Controller.Circuit_start);
      ("ss", Circuitstart.Controller.Slow_start);
      ("pr", Circuitstart.Controller.Predictive);
    ]) config () =
  String.concat ""
    (List.concat_map
       (fun strategy ->
         List.map (network_line config strategy) [ 1; 3 ])
       strategies)

let fixtures =
  [
    ("cell_latency.txt", cell_latency_fixture);
    ("network_axes.txt", network_fixture network_axes_config);
    ("network_churn_burst.txt", network_fixture network_churn_burst_config);
    (* The round law's constant-window arm: the window is clamped once at
       arrival and never moves, whatever the share does. *)
    ( "network_fixed.txt",
      network_fixture
        ~strategies:
          [
            ("fixed:1", Circuitstart.Controller.Fixed 1);
            ("fixed:8", Circuitstart.Controller.Fixed 8);
          ]
        network_axes_config );
    ( "faults_events.csv",
      fun () ->
        Test_util.events_csv (fault_run ()).Workload.Fault_experiment.events );
    ( "recovery_events.csv",
      fun () ->
        Test_util.events_csv
          (recovery_run ()).Workload.Overload_experiment.events );
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
    (* A 2201-node star: 1000 clients, 1000 servers and 200 relays
       around one hub, so route set-up and forwarding are exercised at a
       size the 33-node fixtures above do not reach. *)
    ( "cli_cdf_large_star.txt",
      cli_fixture
        "cdf --circuits 1000 --relays 200 --kib 1 --seed 7 --transport cs" );
    (* The exact world of perfbench's star-paired workload (Figure 1c:
       50 circuits, 30 relays), one run per transport: about 215k events
       each, serialization and propagation clocks and retransmission
       watchdogs that are almost always disarmed. *)
    ( "cli_cdf_star_paired.txt",
      cli_fixtures
        (List.map
           (fun t ->
             "cdf --circuits 50 --relays 30 --kib 64 --seed 1 --transport " ^ t)
           [ "cs"; "ss"; "pr" ]) );
    (* flash-crowd's scale with its event log: watchdogs, backoffs and
       rebuild timers from microseconds to build timeouts. *)
    ( "cli_overload_crowd.txt",
      cli_fixture "overload --sessions 200 --relays 16 --seed 7 --events" );
    (* The reproduction harness's figure and table output for the
       targets that run in well under a second, so a refactor of its
       shared table helpers cannot change what it prints. *)
    ( "bench_tables.txt",
      bench_fixture
        "fig1a table-distance table-faults table-churn table-recovery \
         table-overload" );
    (* Every other target that runs on the single-circuit bottleneck
       line (traces, adaptive step, CBR cross traffic), and the two CLI
       subcommands on that line that no other fixture runs. *)
    ( "bench_line_world.txt",
      bench_fixture
        "fig1b table-gamma table-compensation table-adaptive fig-backprop \
         table-loss table-cross" );
    ("cli_adaptive.txt", cli_fixtures [ "adaptive"; "adaptive --adaptive" ]);
    ("cli_cross.txt", cli_fixture "cross");
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
                 r.Workload.Overload_experiment.events));
        ] );
    ]
