(* Tests for the workload library: relay generation, network assembly,
   experiment configs and determinism. *)

(* ------------------------------------------------------------------ *)
(* Relay generation *)

let test_relay_gen_bounds () =
  let rng = Engine.Rng.create 1 in
  let specs = Workload.Relay_gen.generate rng Workload.Relay_gen.default_config ~n:200 in
  Alcotest.(check int) "count" 200 (List.length specs);
  List.iter
    (fun (s : Workload.Relay_gen.spec) ->
      let mbit = float_of_int (Engine.Units.Rate.to_bps s.bandwidth) /. 1e6 in
      Alcotest.(check bool) "bandwidth clamped" true (mbit >= 1. && mbit <= 100.);
      Alcotest.(check bool) "latency in range" true
        (Engine.Time.( >= ) s.latency (Engine.Time.ms 5)
        && Engine.Time.( <= ) s.latency (Engine.Time.ms 15)))
    specs

let test_relay_gen_exits () =
  let rng = Engine.Rng.create 2 in
  let specs = Workload.Relay_gen.generate rng Workload.Relay_gen.default_config ~n:90 in
  let exits =
    List.length
      (List.filter
         (fun (s : Workload.Relay_gen.spec) ->
           List.mem Tor_model.Relay_info.Exit s.flags)
         specs)
  in
  (* exit_fraction 0.34 -> one in three. *)
  Alcotest.(check int) "exit count" 30 exits

let test_relay_gen_determinism () =
  let gen () =
    Workload.Relay_gen.generate (Engine.Rng.create 3) Workload.Relay_gen.default_config
      ~n:10
  in
  let a = gen () and b = gen () in
  List.iter2
    (fun (x : Workload.Relay_gen.spec) (y : Workload.Relay_gen.spec) ->
      Alcotest.(check int) "same bandwidth"
        (Engine.Units.Rate.to_bps x.bandwidth)
        (Engine.Units.Rate.to_bps y.bandwidth))
    a b

let test_relay_gen_validation () =
  let bad c = match Workload.Relay_gen.validate_config c with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "zero median" true
    (bad { Workload.Relay_gen.default_config with bandwidth_median_mbit = 0. });
  Alcotest.(check bool) "inverted clamp" true
    (bad
       { Workload.Relay_gen.default_config with
         bandwidth_min_mbit = 50.; bandwidth_max_mbit = 10. });
  Alcotest.(check bool) "bad exit fraction" true
    (bad { Workload.Relay_gen.default_config with exit_fraction = 0. });
  Alcotest.check_raises "n = 0" (Invalid_argument "Relay_gen.generate: n must be positive")
    (fun () ->
      ignore
        (Workload.Relay_gen.generate (Engine.Rng.create 0) Workload.Relay_gen.default_config
           ~n:0))

(* ------------------------------------------------------------------ *)
(* Tor_net assembly *)

let test_tor_net_assembly () =
  let sim = Engine.Sim.create () in
  let b = Workload.Tor_net.builder sim () in
  let rng = Engine.Rng.create 4 in
  let relays = Workload.Relay_gen.generate rng Workload.Relay_gen.default_config ~n:5 in
  List.iter (Workload.Tor_net.add_relay b) relays;
  let client =
    Workload.Tor_net.add_endpoint b ~name:"c" ~rate:(Engine.Units.Rate.mbit 100)
      ~delay:(Engine.Time.ms 10)
  in
  let net = Workload.Tor_net.finalize b in
  (* Relay draws depend on the directory's order: declaration order. *)
  Alcotest.(check (list string)) "directory in declaration order"
    (List.map (fun (r : Workload.Relay_gen.spec) -> r.nickname) relays)
    (List.map
       (fun (r : Tor_model.Relay_info.t) -> r.nickname)
       (Tor_model.Directory.relays (Workload.Tor_net.directory net)));
  (* Every leaf has a switchboard, a backtap node and a control
     automaton; the hub and unknown nodes have none. *)
  ignore (Workload.Tor_net.switchboard net client);
  ignore (Workload.Tor_net.backtap_node net client);
  ignore (Workload.Tor_net.relay_ctl net client);
  List.iter
    (fun (what, node) ->
      let raises name f =
        Alcotest.check_raises (Printf.sprintf "%s has no %s" what name) Not_found f
      in
      raises "switchboard" (fun () -> ignore (Workload.Tor_net.switchboard net node));
      raises "backtap node" (fun () -> ignore (Workload.Tor_net.backtap_node net node));
      raises "relay control" (fun () -> ignore (Workload.Tor_net.relay_ctl net node));
      raises "access spec" (fun () -> ignore (Workload.Tor_net.access_spec net node)))
    [ ("hub", Workload.Tor_net.hub net); ("unknown node", Netsim.Node_id.of_int 1000) ];
  let spec = Workload.Tor_net.access_spec net client in
  Alcotest.(check int) "endpoint rate recorded" 100_000_000
    (Engine.Units.Rate.to_bps spec.Optmodel.Path_model.rate)

let test_tor_net_builder_single_use () =
  let sim = Engine.Sim.create () in
  let b = Workload.Tor_net.builder sim () in
  ignore
    (Workload.Tor_net.add_endpoint b ~name:"c" ~rate:(Engine.Units.Rate.mbit 1)
       ~delay:(Engine.Time.ms 1));
  ignore (Workload.Tor_net.finalize b);
  Alcotest.check_raises "refinalize"
    (Invalid_argument "Tor_net.finalize: builder already finalized") (fun () ->
      ignore (Workload.Tor_net.finalize b));
  Alcotest.check_raises "add after finalize"
    (Invalid_argument "Tor_net: builder already finalized") (fun () ->
      ignore
        (Workload.Tor_net.add_endpoint b ~name:"d" ~rate:(Engine.Units.Rate.mbit 1)
           ~delay:(Engine.Time.ms 1)))

let test_tor_net_path_model () =
  let sim = Engine.Sim.create () in
  let b = Workload.Tor_net.builder sim () in
  let rng = Engine.Rng.create 5 in
  List.iter (Workload.Tor_net.add_relay b)
    (Workload.Relay_gen.generate rng Workload.Relay_gen.default_config ~n:3);
  let client =
    Workload.Tor_net.add_endpoint b ~name:"c" ~rate:(Engine.Units.Rate.mbit 100)
      ~delay:(Engine.Time.ms 10)
  in
  let server =
    Workload.Tor_net.add_endpoint b ~name:"s" ~rate:(Engine.Units.Rate.mbit 100)
      ~delay:(Engine.Time.ms 10)
  in
  let net = Workload.Tor_net.finalize b in
  let relays = Tor_model.Directory.relays (Workload.Tor_net.directory net) in
  let circuit =
    Tor_model.Circuit.make
      ~id:(Tor_model.Circuit_id.next (Workload.Tor_net.circuit_ids net))
      ~client ~relays ~server
  in
  let pm = Workload.Tor_net.path_model net circuit in
  Alcotest.(check int) "5 nodes on the path" 5 (Optmodel.Path_model.node_count pm)

(* The bottleneck line: one circuit through every relay in order, the
   slow relay at the requested distance, both of its access links at
   the slow rate, and the extra leaf declared after the server. *)
let test_line_world_shape () =
  let slow = Engine.Units.Rate.mbit 3 in
  let w =
    Workload.Line_world.create ~extra_leaf:"sink" ~relay_count:4 ~bottleneck_distance:3
      ~bottleneck_rate:slow ~fast_rate:(Engine.Units.Rate.mbit 50)
      ~access_delay:(Engine.Time.ms 10) ~endpoint_rate:(Engine.Units.Rate.mbit 100) ()
  in
  let nodes = Tor_model.Circuit.nodes w.circuit in
  Alcotest.(check int) "client, 4 relays, server" 6 (List.length nodes);
  Alcotest.(check bool) "bottleneck is the third relay" true
    (Netsim.Node_id.equal w.bottleneck (List.nth nodes 3));
  let links = Workload.Line_world.bottleneck_links w in
  Alcotest.(check (list int)) "both directions at the slow rate"
    [ Engine.Units.Rate.to_bps slow; Engine.Units.Rate.to_bps slow ]
    (List.map (fun l -> Engine.Units.Rate.to_bps (Netsim.Link.rate l)) links);
  Alcotest.(check bool) "uplink first" true
    (Netsim.Node_id.equal (Netsim.Link.src (List.hd links)) w.bottleneck);
  Alcotest.(check (option int)) "extra leaf follows the server"
    (Some (Netsim.Node_id.to_int (List.nth nodes 5) + 1))
    (Option.map Netsim.Node_id.to_int w.extra_leaf)

(* ------------------------------------------------------------------ *)
(* Experiment configs *)

let test_trace_config_validation () =
  let bad c =
    match Workload.Trace_experiment.validate_config c with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "distance 0" true
    (bad { Workload.Trace_experiment.default_config with bottleneck_distance = 0 });
  Alcotest.(check bool) "distance beyond relays" true
    (bad { Workload.Trace_experiment.default_config with bottleneck_distance = 4 });
  Alcotest.(check bool) "no bytes" true
    (bad { Workload.Trace_experiment.default_config with transfer_bytes = 0 });
  Alcotest.(check bool) "no relays" true
    (bad { Workload.Trace_experiment.default_config with relay_count = 0 });
  Alcotest.(check bool) "zero horizon" true
    (bad { Workload.Trace_experiment.default_config with horizon = Engine.Time.zero });
  Alcotest.(check bool) "default ok" true
    (match Workload.Trace_experiment.validate_config Workload.Trace_experiment.default_config with
    | Ok _ -> true
    | Error _ -> false)

let test_star_config_validation () =
  let bad c =
    match Workload.Star_experiment.validate_config c with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "fewer relays than hops" true
    (bad { Workload.Star_experiment.default_config with relay_count = 2 });
  Alcotest.(check bool) "no circuits" true
    (bad { Workload.Star_experiment.default_config with circuit_count = 0 })

(* ------------------------------------------------------------------ *)
(* Determinism: identical seeds give identical experiment outcomes *)

let small_star transport =
  { Workload.Star_experiment.default_config with
    Workload.Star_experiment.transport;
    circuit_count = 4;
    relay_count = 8;
    transfer_bytes = Engine.Units.kib 100;
    horizon = Engine.Time.s 60;
  }

let test_star_determinism () =
  let run () =
    Workload.Star_experiment.run
      (small_star (Workload.Star_experiment.Backtap Circuitstart.Controller.Circuit_start))
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same completions" a.completed b.completed;
  Alcotest.(check (array (float 1e-12))) "identical ttlb samples" a.ttlb_seconds b.ttlb_seconds;
  Alcotest.(check int) "identical event counts" a.wall_events b.wall_events

let test_star_paired_same_network () =
  (* Different transports, same seed: path bottlenecks must coincide. *)
  let cs =
    Workload.Star_experiment.run
      (small_star (Workload.Star_experiment.Backtap Circuitstart.Controller.Circuit_start))
  in
  let ss =
    Workload.Star_experiment.run
      (small_star (Workload.Star_experiment.Backtap Circuitstart.Controller.Slow_start))
  in
  List.iter2
    (fun (a : Workload.Star_experiment.circuit_outcome)
         (b : Workload.Star_experiment.circuit_outcome) ->
      Alcotest.(check int) "same bottleneck"
        (Engine.Units.Rate.to_bps a.bottleneck_rate)
        (Engine.Units.Rate.to_bps b.bottleneck_rate);
      Alcotest.(check int) "same optimal" a.optimal_source_cells b.optimal_source_cells)
    cs.outcomes ss.outcomes

let test_trace_determinism () =
  let run () = Workload.Trace_experiment.run Workload.Trace_experiment.default_config in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-12)) "same peak" a.peak_cells b.peak_cells;
  Alcotest.(check bool) "same ttlb" true (a.time_to_last_byte = b.time_to_last_byte)

let test_star_queue_stats_present () =
  let r =
    Workload.Star_experiment.run
      (small_star (Workload.Star_experiment.Backtap Circuitstart.Controller.Circuit_start))
  in
  Alcotest.(check bool) "max queue observed" true (r.max_link_queue_bytes > 0);
  Alcotest.(check bool) "mean <= max" true
    (r.mean_link_queue_hwm_bytes <= float_of_int r.max_link_queue_bytes)

let test_sendme_transport_runs () =
  let r = Workload.Star_experiment.run (small_star Workload.Star_experiment.Legacy_sendme) in
  Alcotest.(check int) "all complete" r.total r.completed;
  List.iter
    (fun (o : Workload.Star_experiment.circuit_outcome) ->
      Alcotest.(check int) "no retransmissions recorded for sendme" 0 o.retransmissions)
    r.outcomes

(* ------------------------------------------------------------------ *)
(* Contention with background traffic *)

let test_contention_yields_residual () =
  let run load =
    Workload.Contention_experiment.run
      { Workload.Contention_experiment.cbr_load = load;
        transfer_bytes = Engine.Units.mib 2 }
  in
  let r = run 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "settled %.0f near fair target %.0f" r.settled_cells r.expected_cells)
    true
    (Float.abs (r.settled_cells -. r.expected_cells) <= 0.3 *. r.expected_cells +. 3.);
  Alcotest.(check bool) "background traffic flowed" true (r.cbr_packets > 0);
  let unloaded = run 0. in
  Alcotest.(check bool) "unloaded settles higher than loaded" true
    (unloaded.settled_cells > r.settled_cells)

let test_contention_config_validation () =
  Alcotest.(check bool) "load > 0.9 rejected" true
    (match
       Workload.Contention_experiment.validate_config
         { Workload.Contention_experiment.default_config with cbr_load = 0.95 }
     with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "workload"
    [
      ( "relay_gen",
        [
          Alcotest.test_case "bounds" `Quick test_relay_gen_bounds;
          Alcotest.test_case "exit flags" `Quick test_relay_gen_exits;
          Alcotest.test_case "determinism" `Quick test_relay_gen_determinism;
          Alcotest.test_case "validation" `Quick test_relay_gen_validation;
        ] );
      ( "tor_net",
        [
          Alcotest.test_case "assembly" `Quick test_tor_net_assembly;
          Alcotest.test_case "builder single use" `Quick test_tor_net_builder_single_use;
          Alcotest.test_case "path model" `Quick test_tor_net_path_model;
          Alcotest.test_case "line world" `Quick test_line_world_shape;
        ] );
      ( "configs",
        [
          Alcotest.test_case "trace" `Quick test_trace_config_validation;
          Alcotest.test_case "star" `Quick test_star_config_validation;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "star determinism" `Slow test_star_determinism;
          Alcotest.test_case "paired runs share the network" `Slow
            test_star_paired_same_network;
          Alcotest.test_case "trace determinism" `Slow test_trace_determinism;
          Alcotest.test_case "queue stats" `Slow test_star_queue_stats_present;
          Alcotest.test_case "sendme transport" `Slow test_sendme_transport_runs;
        ] );
      ( "contention",
        [
          Alcotest.test_case "yields residual capacity" `Slow
            test_contention_yields_residual;
          Alcotest.test_case "config validation" `Quick test_contention_config_validation;
        ] );
    ]
