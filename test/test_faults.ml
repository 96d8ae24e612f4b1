(* Tests for the fault-injection subsystem: the loss models'
   statistics, the link-level fault hooks and drop accounting, outage
   scheduling, and the end-to-end fault experiment (loss is survivable,
   a relay crash fails the circuit in bounded time, and every run is
   deterministic per seed). *)

let mk_link ?queue ?(rate = Engine.Units.Rate.mbit 8) ?(delay = Engine.Time.ms 10) sim =
  Netsim.Link.create sim ~src:(Netsim.Node_id.of_int 0) ~dst:(Netsim.Node_id.of_int 1)
    ~rate ~delay ?queue ()

let mk_packet ids ~size =
  Netsim.Packet.make ids ~src:(Netsim.Node_id.of_int 0) ~dst:(Netsim.Node_id.of_int 1)
    ~size ~now:Engine.Time.zero (Netsim.Payload.Raw "x")

(* ------------------------------------------------------------------ *)
(* Loss-model statistics *)

let empirical_rate model ~draws ~seed =
  let rng = Engine.Rng.create seed in
  let st = Netsim.Faults.loss_state model in
  let lost = ref 0 in
  for _ = 1 to draws do
    if Netsim.Faults.decide st rng then incr lost
  done;
  float_of_int !lost /. float_of_int draws

let test_bernoulli_rate () =
  let model = Netsim.Faults.Bernoulli 0.05 in
  let r = empirical_rate model ~draws:20_000 ~seed:11 in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.4f within 0.01 of 0.05" r)
    true
    (Float.abs (r -. 0.05) < 0.01)

let ge =
  Netsim.Faults.Gilbert_elliott
    { p_good_to_bad = 0.05; p_bad_to_good = 0.25; loss_good = 0.; loss_bad = 0.8 }

let test_gilbert_elliott_rate () =
  (* Stationary: pi_bad = 0.05 / 0.30 = 1/6, so rate = 0.8 / 6. *)
  let expected = 0.8 /. 6. in
  let r = empirical_rate ge ~draws:50_000 ~seed:5 in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.4f within 0.02 of %.4f" r expected)
    true
    (Float.abs (r -. expected) < 0.02)

let test_gilbert_elliott_burstiness () =
  (* The point of the model: losses cluster.  The probability of a loss
     immediately after a loss must clearly exceed the unconditional
     rate (an i.i.d. channel would make them equal). *)
  let rng = Engine.Rng.create 3 in
  let st = Netsim.Faults.loss_state ge in
  let draws = 50_000 in
  let losses = ref 0 and after_loss = ref 0 and pairs = ref 0 in
  let prev = ref false in
  for _ = 1 to draws do
    let lost = Netsim.Faults.decide st rng in
    if lost then incr losses;
    if !prev then begin
      incr pairs;
      if lost then incr after_loss
    end;
    prev := lost
  done;
  let unconditional = float_of_int !losses /. float_of_int draws in
  let conditional = float_of_int !after_loss /. float_of_int !pairs in
  Alcotest.(check bool)
    (Printf.sprintf "P(loss|loss)=%.3f > 2 * P(loss)=%.3f" conditional unconditional)
    true
    (conditional > 2. *. unconditional)

let test_loss_validation () =
  (match Netsim.Faults.validate_loss (Netsim.Faults.Bernoulli 1.5) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Bernoulli 1.5 validated");
  (match
     Netsim.Faults.validate_loss
       (Netsim.Faults.Gilbert_elliott
          { p_good_to_bad = -0.1; p_bad_to_good = 0.5; loss_good = 0.; loss_bad = 1. })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative transition validated");
  Alcotest.(check bool) "loss_state rejects invalid model" true
    (try
       ignore (Netsim.Faults.loss_state (Netsim.Faults.Bernoulli 2.) : Netsim.Faults.loss_state);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Link-level fault hooks *)

let test_link_loss_accounting () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  let ids = Netsim.Packet.fresh_id_state () in
  let delivered = ref 0 in
  Netsim.Link.set_receiver link (fun _ -> incr delivered);
  Netsim.Faults.attach_loss ~rng:(Engine.Rng.create 7) link (Netsim.Faults.Bernoulli 0.3);
  let n = 500 in
  for _ = 1 to n do
    Netsim.Link.send link (mk_packet ids ~size:500)
  done;
  Engine.Sim.run sim;
  let drops = Netsim.Link.drop_counts link in
  Alcotest.(check bool) "some packets lost" true (drops.Netsim.Link.fault_injected > 0);
  Alcotest.(check int) "delivered + lost = sent" n
    (!delivered + drops.Netsim.Link.fault_injected);
  Alcotest.(check int) "no queue drops" 0 drops.Netsim.Link.queue_full;
  Alcotest.(check int) "total" drops.Netsim.Link.fault_injected
    (Netsim.Link.total_drops drops)

let test_link_outage_window () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  let ids = Netsim.Packet.fresh_id_state () in
  let delivered = ref 0 in
  Netsim.Link.set_receiver link (fun _ -> incr delivered);
  let trace = Engine.Trace.create () in
  Netsim.Faults.schedule_outage ~trace sim link ~down_at:(Engine.Time.ms 100)
    ~up_at:(Engine.Time.ms 200);
  (* One packet in each regime: before, during, after the outage. *)
  List.iter
    (fun at ->
      ignore @@
      Engine.Sim.schedule_at sim (Engine.Time.ms at) (fun () ->
          Netsim.Link.send link (mk_packet ids ~size:500)))
    [ 10; 150; 250 ];
  Engine.Sim.run sim;
  Alcotest.(check int) "two delivered" 2 !delivered;
  Alcotest.(check int) "one outage drop" 1
    (Netsim.Link.drop_counts link).Netsim.Link.outage;
  Alcotest.(check bool) "link back up" true (Netsim.Link.is_up link);
  let kinds = List.map (fun e -> e.Engine.Trace.kind) (Engine.Trace.events trace) in
  Alcotest.(check bool) "fault then recovery traced" true
    (kinds = [ Engine.Trace.Fault; Engine.Trace.Recovery ])

(* Rate changes scheduled mid-run, as the adaptive experiment's
   bottleneck step makes them. *)
let test_schedule_rates () =
  let sim = Engine.Sim.create () in
  let link = mk_link ~rate:(Engine.Units.Rate.mbit 8) sim in
  Netsim.Link.set_receiver link (fun _ -> ());
  List.iter
    (fun (at, rate) ->
      ignore (Engine.Sim.schedule_at sim at (fun () -> Netsim.Link.set_rate link rate)))
    [ (Engine.Time.ms 50, Engine.Units.Rate.mbit 2);
      (Engine.Time.ms 100, Engine.Units.Rate.mbit 6) ];
  let at_75 = ref None and at_150 = ref None in
  ignore @@
  Engine.Sim.schedule_at sim (Engine.Time.ms 75) (fun () ->
      at_75 := Some (Netsim.Link.rate link));
  ignore @@
  Engine.Sim.schedule_at sim (Engine.Time.ms 150) (fun () ->
      at_150 := Some (Netsim.Link.rate link));
  Engine.Sim.run sim;
  Alcotest.(check bool) "degraded at 75ms" true
    (!at_75 = Some (Engine.Units.Rate.mbit 2));
  Alcotest.(check bool) "recovered at 150ms" true
    (!at_150 = Some (Engine.Units.Rate.mbit 6))

(* ------------------------------------------------------------------ *)
(* The fault experiment *)

let quick_config =
  { Workload.Fault_experiment.default_config with
    Workload.Fault_experiment.transfer_bytes = Engine.Units.kib 128;
  }

let test_experiment_clean_completes () =
  let r = Workload.Fault_experiment.run quick_config in
  Alcotest.(check bool) "completed" true
    (r.Workload.Fault_experiment.outcome = Workload.Fault_experiment.Completed);
  Alcotest.(check int) "no retransmissions on a clean network" 0
    r.Workload.Fault_experiment.retransmissions;
  Alcotest.(check int) "no drops anywhere" 0
    (Netsim.Link.total_drops r.Workload.Fault_experiment.drops)

(* The headline robustness claim: 1% wire loss on the bottleneck slows
   the transfer down but never kills it — hop-by-hop retransmission
   repairs every hole. *)
let test_experiment_loss_survivable () =
  List.iter
    (fun seed ->
      let r =
        Workload.Fault_experiment.run ~seed
          { quick_config with loss = Some (Netsim.Faults.Bernoulli 0.01) }
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d completed" seed)
        true
        (r.Workload.Fault_experiment.outcome = Workload.Fault_experiment.Completed);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d retransmitted" seed)
        true
        (r.Workload.Fault_experiment.retransmissions > 0
        || r.Workload.Fault_experiment.drops.Netsim.Link.fault_injected = 0))
    [ 1; 2; 3; 4; 5 ]

let test_experiment_deterministic () =
  let cfg = { quick_config with loss = Some (Netsim.Faults.Bernoulli 0.02) } in
  let a = Workload.Fault_experiment.run ~seed:9 cfg in
  let b = Workload.Fault_experiment.run ~seed:9 cfg in
  Alcotest.(check bool) "same ttlb" true
    (a.Workload.Fault_experiment.time_to_last_byte
    = b.Workload.Fault_experiment.time_to_last_byte);
  Alcotest.(check int) "same retransmissions"
    a.Workload.Fault_experiment.retransmissions
    b.Workload.Fault_experiment.retransmissions;
  Alcotest.(check bool) "same drops" true
    (a.Workload.Fault_experiment.drops = b.Workload.Fault_experiment.drops);
  let c = Workload.Fault_experiment.run ~seed:10 cfg in
  Alcotest.(check bool) "different seed, different loss pattern" true
    (a.Workload.Fault_experiment.drops <> c.Workload.Fault_experiment.drops
    || a.Workload.Fault_experiment.time_to_last_byte
       <> c.Workload.Fault_experiment.time_to_last_byte)

(* A crashed relay must surface as a circuit failure within the
   retransmission budget's bound — the simulation terminates instead of
   retransmitting into the black hole forever. *)
let test_experiment_crash_fails_bounded () =
  let r =
    Workload.Fault_experiment.run
      { quick_config with crash_at = Some (Engine.Time.ms 200) }
  in
  Alcotest.(check bool) "failed" true
    (r.Workload.Fault_experiment.outcome = Workload.Fault_experiment.Failed_circuit);
  (match r.Workload.Fault_experiment.failed_after with
  | None -> Alcotest.fail "no failure instant"
  | Some t ->
      Alcotest.(check bool)
        (Printf.sprintf "failed after %.1fs, well before the 60s horizon"
           (Engine.Time.to_sec_f t))
        true
        Engine.Time.(t < Engine.Time.s 30));
  Alcotest.(check bool) "failed hop identified" true
    (r.Workload.Fault_experiment.failed_hop <> None);
  Alcotest.(check bool) "crashed relay black-holed traffic" true
    (r.Workload.Fault_experiment.blackholed_cells > 0);
  let kinds = List.map (fun e -> e.Engine.Trace.kind) r.Workload.Fault_experiment.events in
  Alcotest.(check bool) "crash and abort traced" true
    (List.mem Engine.Trace.Fault kinds && List.mem Engine.Trace.Abort kinds)

let test_experiment_outage_survivable () =
  let r =
    Workload.Fault_experiment.run
      { quick_config with
        outage = Some (Engine.Time.ms 100, Engine.Time.ms 400);
        horizon = Engine.Time.s 120;
      }
  in
  Alcotest.(check bool) "completed despite outage" true
    (r.Workload.Fault_experiment.outcome = Workload.Fault_experiment.Completed);
  Alcotest.(check bool) "outage dropped traffic" true
    (r.Workload.Fault_experiment.drops.Netsim.Link.outage > 0)

let test_experiment_paired_comparison () =
  let c =
    Workload.Experiment.compare
      (module Workload.Fault_experiment)
      ~seed:4
      { quick_config with loss = Some (Netsim.Faults.Bernoulli 0.01) }
  in
  Alcotest.(check bool) "both completed" true
    (c.circuit_start.outcome = Workload.Fault_experiment.Completed
    && c.slow_start.outcome = Workload.Fault_experiment.Completed)

let test_experiment_validation () =
  Alcotest.(check bool) "bad loss rejected" true
    (match
       Workload.Fault_experiment.validate_config
         { quick_config with loss = Some (Netsim.Faults.Bernoulli 2.) }
     with
    | Error _ -> true
    | Ok _ -> false);
  Alcotest.(check bool) "inverted outage rejected" true
    (match
       Workload.Fault_experiment.validate_config
         { quick_config with outage = Some (Engine.Time.ms 500, Engine.Time.ms 100) }
     with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "loss models",
        [
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "gilbert-elliott rate" `Quick test_gilbert_elliott_rate;
          Alcotest.test_case "gilbert-elliott burstiness" `Quick
            test_gilbert_elliott_burstiness;
          Alcotest.test_case "validation" `Quick test_loss_validation;
        ] );
      ( "link hooks",
        [
          Alcotest.test_case "loss accounting" `Quick test_link_loss_accounting;
          Alcotest.test_case "outage window" `Quick test_link_outage_window;
          Alcotest.test_case "rate schedule" `Quick test_schedule_rates;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "clean baseline" `Quick test_experiment_clean_completes;
          Alcotest.test_case "1% loss survivable" `Quick test_experiment_loss_survivable;
          Alcotest.test_case "deterministic per seed" `Quick test_experiment_deterministic;
          Alcotest.test_case "crash fails bounded" `Quick
            test_experiment_crash_fails_bounded;
          Alcotest.test_case "outage survivable" `Quick test_experiment_outage_survivable;
          Alcotest.test_case "paired comparison" `Quick test_experiment_paired_comparison;
          Alcotest.test_case "config validation" `Quick test_experiment_validation;
        ] );
    ]
