(* Tests for the consensus-scale network workload and its supporting
   machinery: the streaming histogram sketch, the pooled circuit state,
   the CS-vs-SS shape at small scale, the Network check-harness kind,
   and the perf-trajectory gate behind bench/trajectory.exe. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Stats.Sketch *)

let test_sketch_basics () =
  let sk = Engine.Stats.Sketch.create ~bins:10 ~lo:0. ~hi:10. () in
  Alcotest.(check int) "empty count" 0 (Engine.Stats.Sketch.count sk);
  List.iter (Engine.Stats.Sketch.add sk) [ 1.5; 2.5; 2.6; 9.9 ];
  Alcotest.(check int) "count" 4 (Engine.Stats.Sketch.count sk);
  Alcotest.(check (float 1e-9)) "min exact" 1.5 (Engine.Stats.Sketch.min sk);
  Alcotest.(check (float 1e-9)) "max exact" 9.9 (Engine.Stats.Sketch.max sk);
  Alcotest.(check (float 1e-9)) "mean exact" 4.125 (Engine.Stats.Sketch.mean sk);
  (* Out-of-range samples land in side bins but keep exact extremes. *)
  Engine.Stats.Sketch.add sk (-3.);
  Engine.Stats.Sketch.add sk 25.;
  Alcotest.(check (float 1e-9)) "min below range" (-3.)
    (Engine.Stats.Sketch.min sk);
  Alcotest.(check (float 1e-9)) "max above range" 25.
    (Engine.Stats.Sketch.max sk);
  Alcotest.(check (float 1e-9)) "q0 is min" (-3.)
    (Engine.Stats.Sketch.quantile sk 0.);
  Alcotest.(check (float 1e-9)) "q1 is max" 25.
    (Engine.Stats.Sketch.quantile sk 1.)

let test_sketch_rejects () =
  Alcotest.check_raises "lo >= hi"
    (Invalid_argument "Sketch.create: need finite lo < hi") (fun () ->
      ignore (Engine.Stats.Sketch.create ~lo:1. ~hi:1. ()));
  let sk = Engine.Stats.Sketch.create ~lo:0. ~hi:1. () in
  Alcotest.(check bool) "nan add raises" true
    (match Engine.Stats.Sketch.add sk Float.nan with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "empty quantile raises" true
    (match Engine.Stats.Sketch.quantile sk 0.5 with
    | (_ : float) -> false
    | exception Invalid_argument _ -> true)

(* Exact quantile under the same convention as Sketch.quantile:
   smallest sample whose fraction-below reaches q. *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  sorted.(Stdlib.max 0 (Stdlib.min (n - 1) i))

let gen_samples =
  QCheck2.Gen.(list_size (int_range 1 300) (float_bound_exclusive 100.))

let prop_sketch_quantile_within_bin =
  QCheck2.Test.make ~name:"Sketch.quantile within one bin of exact"
    ~count:100
    QCheck2.Gen.(pair gen_samples (int_range 0 100))
    (fun (xs, qi) ->
      let bins = 64 in
      let width = 100. /. float_of_int bins in
      let sk = Engine.Stats.Sketch.create ~bins ~lo:0. ~hi:100. () in
      List.iter (Engine.Stats.Sketch.add sk) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let q = float_of_int qi /. 100. in
      let est = Engine.Stats.Sketch.quantile sk q in
      Float.abs (est -. exact_quantile sorted q) <= width +. 1e-9)

(* Associativity is checked on the observable distribution — counters,
   extremes, quantiles — not on raw structural equality: the exact
   running [sum] is a float, and float addition re-associated across
   merges can differ in the last ulp. *)
let prop_sketch_merge_associative =
  QCheck2.Test.make ~name:"Sketch.merge associative, order-independent"
    ~count:100
    QCheck2.Gen.(triple gen_samples gen_samples gen_samples)
    (fun (a, b, c) ->
      let mk xs =
        let sk = Engine.Stats.Sketch.create ~bins:32 ~lo:0. ~hi:100. () in
        List.iter (Engine.Stats.Sketch.add sk) xs;
        sk
      in
      let sa = mk a and sb = mk b and sc = mk c in
      let m = Engine.Stats.Sketch.merge in
      let same x y =
        Engine.Stats.Sketch.count x = Engine.Stats.Sketch.count y
        && compare (Engine.Stats.Sketch.min x) (Engine.Stats.Sketch.min y) = 0
        && compare (Engine.Stats.Sketch.max x) (Engine.Stats.Sketch.max y) = 0
        && List.for_all
             (fun i ->
               let q = float_of_int i /. 64. in
               compare
                 (Engine.Stats.Sketch.quantile_opt x q)
                 (Engine.Stats.Sketch.quantile_opt y q)
               = 0)
             (List.init 65 Fun.id)
        && Float.abs (Engine.Stats.Sketch.mean x -. Engine.Stats.Sketch.mean y)
           <= 1e-9 *. (1. +. Float.abs (Engine.Stats.Sketch.mean x))
      in
      same (m (m sa sb) sc) (m sa (m sb sc))
      && same (m (m sa sb) sc) (mk (a @ b @ c)))

(* ------------------------------------------------------------------ *)
(* Network experiment: pooled state and determinism *)

let small_config =
  {
    Workload.Network_experiment.default_config with
    Workload.Network_experiment.relays = 20;
    slots = 60;
    target_lifetimes = 600;
    mean_think = Engine.Time.ms 40;
    elephant_fraction = 0.1;
    elephant_cells = 128;
    mice_cells = 16;
    sketch_bins = 512;
    sketch_max = Engine.Time.s 60;
  }

let test_pool_recycles_no_orphans () =
  let r = Workload.Network_experiment.run ~seed:11 small_config in
  Test_util.check_stops_at_goal small_config r;
  Alcotest.(check bool) "records were recycled" true
    (r.Workload.Network_experiment.pool_recycles > 0);
  Alcotest.(check int) "no orphaned circuit registrations" 0
    r.Workload.Network_experiment.orphaned_circuits;
  Alcotest.(check int) "no orphaned queued cells" 0
    r.Workload.Network_experiment.orphaned_cells;
  Alcotest.(check bool) "peak never exceeds the slot population" true
    (r.Workload.Network_experiment.peak_active <= small_config.slots)

let test_network_jobs_deterministic () =
  Test_util.check_jobs_deterministic (fun jobs ->
      Workload.Network_experiment.run_many ~jobs
        [
          (3, small_config);
          (7, { small_config with diurnal_amplitude = 0.5 });
        ])

(* The predictive controller replans every round from per-round RTT
   extremes; if any of that state leaked across tasks or shards the
   planner would be the first place determinism broke.  Pin it the same
   way as the reactive strategies: jobs 1/2/4 byte-identical, and every
   positive shard count structurally identical. *)
let predictive_config =
  {
    small_config with
    Workload.Network_experiment.strategy = Circuitstart.Controller.Predictive;
  }

let test_predictive_jobs_deterministic () =
  Test_util.check_jobs_deterministic (fun jobs ->
      Workload.Network_experiment.run_many ~jobs
        [
          (3, predictive_config);
          (7, { predictive_config with diurnal_amplitude = 0.5 });
        ])

let test_predictive_sharded_identical () =
  let run shards =
    Workload.Network_experiment.run ~seed:11
      { predictive_config with Workload.Network_experiment.shards }
  in
  let r1 = run 1 in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "predictive shards=%d identical to shards=1" k)
        true
        (compare r1 (run k) = 0))
    [ 2; 4 ]

let test_validate_config_rejects () =
  let bad msg c =
    match Workload.Network_experiment.validate_config c with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted invalid config: " ^ msg)
  in
  bad "too few relays" { small_config with relays = 3 };
  bad "no slots" { small_config with slots = 0 };
  bad "zero think" { small_config with mean_think = Engine.Time.zero };
  bad "diurnal amplitude > 0.95" { small_config with diurnal_amplitude = 1.2 };
  bad "elephant fraction > 1" { small_config with elephant_fraction = 1.5 }

(* Small-scale shape check against the paper's Figure 1c: on a paired
   seed, CircuitStart's early compensation beats slow start at the
   median, and the streaming sketch agrees with the exact retained
   samples to within one bin width.  The config keeps the BDP a few
   cells wide (64-cell mice over a 100-relay population) — at tiny
   scale the window clamps to 1 and both strategies degenerate to the
   same trajectory. *)
let shape_config =
  {
    Workload.Network_experiment.default_config with
    Workload.Network_experiment.relays = 100;
    slots = 400;
    target_lifetimes = 2_000;
    mean_think = Engine.Time.ms 100;
    elephant_fraction = 0.1;
    elephant_cells = 512;
    mice_cells = 64;
    sketch_bins = 512;
    sketch_max = Engine.Time.s 60;
  }

let test_small_scale_shape_and_sketch_agreement () =
  let config = { shape_config with retain_exact = true } in
  let cmp =
    Workload.Experiment.compare (module Workload.Network_experiment) ~seed:11
      config
  in
  let cs = cmp.circuit_start in
  let ss = cmp.slow_start in
  let p50 (r : Workload.Network_experiment.result) =
    Engine.Stats.Sketch.quantile r.ttlb_all 0.5
  in
  Alcotest.(check bool) "CS median TTLB <= SS median TTLB" true
    (p50 cs <= p50 ss +. 1e-9);
  let width =
    Engine.Time.to_sec_f config.sketch_max /. float_of_int config.sketch_bins
  in
  let exact = Array.copy cs.Workload.Network_experiment.ttlb_exact in
  Array.sort compare exact;
  Alcotest.(check int) "exact samples retained"
    cs.Workload.Network_experiment.completed (Array.length exact);
  List.iter
    (fun q ->
      let est = Engine.Stats.Sketch.quantile cs.ttlb_all q in
      Alcotest.(check bool)
        (Printf.sprintf "sketch q%.2f within one bin of exact" q)
        true
        (Float.abs (est -. exact_quantile exact q) <= width +. 1e-9))
    [ 0.25; 0.5; 0.9; 0.99 ]

(* ------------------------------------------------------------------ *)
(* Shard: deterministic partitions and the sharded engine *)

let prop_relay_shard_true_partition =
  QCheck2.Test.make
    ~name:"relay_shard: every relay in exactly one shard, stable under seed"
    QCheck2.Gen.(
      triple (int_range 0 100_000) (int_range 1 8) (int_range 0 10_000))
    (fun (seed, shards, r) ->
      let s = Workload.Shard.relay_shard ~seed ~shards r in
      (* In range, and a pure function of (seed, shards, r). *)
      s >= 0 && s < shards && s = Workload.Shard.relay_shard ~seed ~shards r)

let prop_slot_ranges_tile =
  QCheck2.Test.make
    ~name:"slot_range: shards tile [0, slots) exactly, in order"
    QCheck2.Gen.(pair (int_range 1 400) (int_range 1 10))
    (fun (slots, shards) ->
      let n = Workload.Shard.count ~slots ~shards in
      let ok = ref (n >= 1 && n <= Stdlib.min slots shards) in
      let next = ref 0 in
      for k = 0 to n - 1 do
        let lo, hi = Workload.Shard.slot_range ~slots ~shards k in
        if lo <> !next || hi < lo then ok := false;
        next := hi
      done;
      !ok && !next = slots)

let test_sharded_results_identical () =
  (* The tentpole guarantee: every positive shard count computes the
     same result — not statistically close, structurally identical. *)
  let run shards =
    Workload.Network_experiment.run ~seed:11
      { small_config with Workload.Network_experiment.shards }
  in
  let r1 = run 1 in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "shards=%d identical to shards=1" k)
        true
        (compare r1 (run k) = 0))
    [ 2; 3; 4 ];
  Alcotest.(check bool) "shards > slots clamps to the slot count" true
    (compare r1 (run 1_000) = 0)

let test_sharded_with_churn_identical () =
  (* Churn and epoch boundaries fire single-threaded at barriers; the
     sharded engine must agree with itself across shard counts when
     relays leave, crash, drain, and rejoin mid-run. *)
  let churned =
    {
      small_config with
      Workload.Network_experiment.leave_hazard = 0.02;
      join_hazard = 0.2;
      crash_fraction = 0.5;
      drain_grace = Engine.Time.ms 200;
      epoch_period = Engine.Time.s 2;
      spare_relays = 4;
    }
  in
  let run shards =
    Workload.Network_experiment.run ~seed:7
      { churned with Workload.Network_experiment.shards }
  in
  let r1 = run 1 in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "churned shards=%d identical to shards=1" k)
        true
        (compare r1 (run k) = 0))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* The Network check kind catches a reintroduced pool-recycling bug *)

let selection = Check.Oracle.all
let check sc = Check.Harness.check_scenario ~selection sc

(* A Network scenario small enough to shrink quickly but busy enough
   that circuits complete (and therefore release pool records). *)
let pool_prone =
  {
    Check.Scenario.kind = Check.Scenario.Network;
    seed = 5;
    relays = 8;
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
    sessions = 8;
    oload_circuits = 0;
    oload_kib = 0;
    arrival_ms = 20;
    lifet = 40;
    leave_pm = 0;
    join_pm = 0;
    crashpct = 0;
    grace_ms = 0;
    epoch_ms = 0;
    spares = 0;
    shards = 1;
  }

let find_failing_network () =
  if Result.is_error (check pool_prone) then Some pool_prone
  else
    let rec go index =
      if index >= 40 then None
      else
        let sc = Check.Scenario.generate ~seed:42 ~index () in
        if
          sc.Check.Scenario.kind = Check.Scenario.Network
          && Result.is_error (check sc)
        then Some sc
        else go (index + 1)
    in
    go 0

let test_disabled_pool_release_is_caught () =
  Workload.Network_experiment.unsafe_disable_pool_release := true;
  let line =
    Fun.protect
      ~finally:(fun () ->
        Workload.Network_experiment.unsafe_disable_pool_release := false)
      (fun () ->
        match find_failing_network () with
        | None ->
            Alcotest.fail
              "no scenario tripped the oracles with pool release off"
        | Some sc ->
            (match check sc with
            | Ok _ -> Alcotest.fail "scenario stopped failing on re-run"
            | Error reason ->
                Alcotest.(check bool)
                  (Printf.sprintf "pool oracle named in: %s" reason)
                  true
                  (contains ~needle:"pool" reason));
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
  (* Release restored: the very same reproducer line is law-abiding. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  match Check.Harness.replay ~selection line ppf with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "reproducer still fails with release restored"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* The shard differential catches an unordered exchange *)

(* A sharded scenario busy enough that occupancy changes mid-window:
   with the exchange applied in place instead of deferred to the
   barrier, path draws observe half-updated counters and the result
   becomes shard-count-dependent — exactly what the harness's
   shards=1-vs-4 differential exists to catch. *)
let find_failing_sharded () =
  let direct =
    List.filter_map
      (fun (seed, sessions) ->
        let sc =
          { pool_prone with Check.Scenario.seed; sessions; shards = 2 }
        in
        if Result.is_error (check sc) then Some sc else None)
      [ (5, 8); (11, 12); (3, 16) ]
  in
  match direct with
  | sc :: _ -> Some sc
  | [] ->
      let rec go index =
        if index >= 60 then None
        else
          let sc = Check.Scenario.generate ~seed:99 ~index () in
          let sc =
            match sc.Check.Scenario.kind with
            | (Check.Scenario.Network | Check.Scenario.Churn)
              when sc.Check.Scenario.shards = 0 ->
                { sc with Check.Scenario.shards = 2 }
            | _ -> sc
          in
          match sc.Check.Scenario.kind with
          | (Check.Scenario.Network | Check.Scenario.Churn)
            when Result.is_error (check sc) ->
              Some sc
          | _ -> go (index + 1)
      in
      go 0

let test_unordered_exchange_is_caught () =
  Workload.Network_experiment.unsafe_unordered_exchange := true;
  let line =
    Fun.protect
      ~finally:(fun () ->
        Workload.Network_experiment.unsafe_unordered_exchange := false)
      (fun () ->
        match find_failing_sharded () with
        | None ->
            Alcotest.fail
              "no scenario tripped the shard differential with the exchange \
               unordered"
        | Some sc ->
            (match check sc with
            | Ok _ -> Alcotest.fail "scenario stopped failing on re-run"
            | Error reason ->
                (* Under the hook the shards step in sequence, so the
                   planted bug is deterministic: the same-seed repeat
                   agrees with itself and the shards=1-vs-4 digest
                   comparison is what catches the unordered exchange. *)
                Alcotest.(check bool)
                  (Printf.sprintf "the shard differential named in: %s" reason)
                  true
                  (contains ~needle:"shard differential" reason));
            (* The failure shrinks to a replayable one-line reproducer
               that still fails. *)
            let shrunk = Check.Harness.shrink ~selection sc in
            Alcotest.(check bool) "shrunk scenario stays sharded" true
              (shrunk.Check.Scenario.shards > 0);
            let line = Check.Scenario.to_string shrunk in
            let buf = Buffer.create 256 in
            let ppf = Format.formatter_of_buffer buf in
            (match Check.Harness.replay ~selection line ppf with
            | Ok false -> ()
            | Ok true -> Alcotest.fail "shrunk reproducer passed on replay"
            | Error e -> Alcotest.fail e);
            line)
  in
  (* Ordered exchange restored: the same reproducer line passes. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  match Check.Harness.replay ~selection line ppf with
  | Ok true -> ()
  | Ok false ->
      Alcotest.fail "reproducer still fails with the ordered exchange restored"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* torsim CLI: sharded runs are byte-identical across shards x jobs *)

let torsim_out ?(env = "") args =
  let out = Filename.temp_file "torsim" ".out" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s %s > %s 2>&1" env (Test_util.torsim_exe ()) args
         out)
  in
  let ic = open_in_bin out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (rc, text)

let test_cli_sharded_byte_identical () =
  let base =
    "network --relays 10 --circuits 24 --lifetimes 120 --think-ms 20 --seed 3"
  in
  let rc, reference = torsim_out base in
  Alcotest.(check int) "reference run exits 0" 0 rc;
  Alcotest.(check bool) "reference run prints a table" true
    (String.length reference > 0);
  List.iter
    (fun (shards, jobs) ->
      let rc, out =
        torsim_out (Printf.sprintf "%s --shards %d --jobs %d" base shards jobs)
      in
      Alcotest.(check int)
        (Printf.sprintf "--shards %d --jobs %d exits 0" shards jobs)
        0 rc;
      Alcotest.(check string)
        (Printf.sprintf "--shards %d --jobs %d byte-identical" shards jobs)
        reference out)
    [ (1, 1); (1, 2); (1, 4); (2, 1); (2, 2); (2, 4); (4, 1); (4, 2); (4, 4) ]

let test_cli_rejects_bad_jobs_env () =
  let rc, text =
    torsim_out ~env:"CIRCUITSTART_JOBS=lots"
      "network --relays 10 --circuits 8 --lifetimes 20 --think-ms 20"
  in
  Alcotest.(check int) "bad CIRCUITSTART_JOBS exits 2" 2 rc;
  Alcotest.(check bool) "friendly one-line error" true
    (contains ~needle:"CIRCUITSTART_JOBS must be a positive integer" text)

let test_cli_rejects_bad_strategy () =
  (* Every near-miss spelling of --strategy dies with a nonzero exit and
     a one-line error naming the accepted spellings, on every paired
     command that takes the flag. *)
  List.iter
    (fun cmd ->
      List.iter
        (fun bogus ->
          let rc, text =
            torsim_out (Printf.sprintf "%s --strategy %s" cmd bogus)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s --strategy %s exits nonzero" cmd bogus)
            true (rc <> 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s --strategy %s names the problem" cmd bogus)
            true
            (contains ~needle:"unknown strategy" text
            && contains ~needle:"circuitstart" text))
        [ "predicitve"; "vegas"; "pred" ])
    [
      "faults --kib 4";
      "recover --kib 4";
      "network --relays 10 --circuits 8 --lifetimes 20 --think-ms 20";
    ];
  (* The check command reads the flag through the same parser, and
     also refuses a fixed window, which no scenario samples. *)
  let rc, text = torsim_out "check --runs 1 --strategy predicitve" in
  Alcotest.(check bool) "check --strategy predicitve exits nonzero" true
    (rc <> 0);
  Alcotest.(check bool) "check --strategy error names the problem" true
    (contains ~needle:"unknown strategy" text);
  let rc, text = torsim_out "check --runs 1 --strategy fixed:8" in
  Alcotest.(check int) "check --strategy fixed:8 is a usage error" 124 rc;
  Alcotest.(check bool) "check --strategy fixed:8 names the problem" true
    (contains ~needle:"fixed:N is not a sampled strategy" text);
  (* And the accepted spellings do parse: a 1-run pinned check is fast. *)
  let rc, _ = torsim_out "check --runs 1 --seed 5 --strategy predictive" in
  Alcotest.(check int) "check --strategy predictive runs" 0 rc

(* ------------------------------------------------------------------ *)
(* Perf_gate: the scanner, the floors file, the ratchet *)

let sample_report =
  "{\n\
  \  \"pr\": 7,\n\
  \  \"events_per_sec\": 1.25e6,\n\
  \  \"minor_words_per_event\": 5.2,\n\
  \  \"scale\": { \"sim_events\": 50482943 },\n\
  \  \"paired\": { \"cs\": { \"sim_events\": 100 }, \"ss\": { \"sim_events\": 200 } }\n\
   }\n"

let test_find_number () =
  Alcotest.(check (option (float 1e-3)))
    "first occurrence wins" (Some 1.25e6)
    (Analysis.Perf_gate.find_number ~key:"events_per_sec" sample_report);
  Alcotest.(check (option (float 1e-9)))
    "negative/decimal parse" (Some 5.2)
    (Analysis.Perf_gate.find_number ~key:"minor_words_per_event" sample_report);
  Alcotest.(check (option (float 1e-9)))
    "absent key" None
    (Analysis.Perf_gate.find_number ~key:"nonexistent" sample_report);
  Alcotest.(check (list (float 1e-9)))
    "all occurrences in order"
    [ 50482943.; 100.; 200. ]
    (Analysis.Perf_gate.find_numbers ~key:"sim_events" sample_report)

let test_parse_floors () =
  let text =
    "# blessed on the reference machine\n\n\
     BENCH_pr7.json events_per_sec min 1.0e6\n\
     BENCH_pr7.json minor_words_per_event max 10\n"
  in
  (match Analysis.Perf_gate.parse_floors text with
  | Ok [ a; b ] ->
      Alcotest.(check string) "file" "BENCH_pr7.json" a.Analysis.Perf_gate.file;
      Alcotest.(check bool) "min dir" true
        (a.Analysis.Perf_gate.direction = Analysis.Perf_gate.Min);
      Alcotest.(check bool) "max dir" true
        (b.Analysis.Perf_gate.direction = Analysis.Perf_gate.Max);
      Alcotest.(check (float 1e-3)) "bound" 1.0e6 a.Analysis.Perf_gate.bound
  | Ok _ -> Alcotest.fail "wrong floor count"
  | Error e -> Alcotest.fail e);
  (match Analysis.Perf_gate.parse_floors "BENCH.json k sideways 3" with
  | Error e ->
      Alcotest.(check bool) "bad direction names line" true
        (contains ~needle:"line 1" e)
  | Ok _ -> Alcotest.fail "accepted bad direction");
  match Analysis.Perf_gate.parse_floors "too few fields" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted short line"

let gate_floors =
  [
    {
      Analysis.Perf_gate.file = "BENCH_pr7.json";
      key = "events_per_sec";
      direction = Analysis.Perf_gate.Min;
      bound = 1.0e6;
      min_cores = None;
    };
    {
      Analysis.Perf_gate.file = "BENCH_pr7.json";
      key = "minor_words_per_event";
      direction = Analysis.Perf_gate.Max;
      bound = 5.0;
      min_cores = None;
    };
  ]

let read_sample name = if name = "BENCH_pr7.json" then Some sample_report else None

let test_check_floors () =
  (* tolerance 0: the Max floor (5.0 against a measured 5.2) trips. *)
  (match Analysis.Perf_gate.check ~tolerance:0. ~read:read_sample gate_floors with
  | [ min_o; max_o ] ->
      Alcotest.(check bool) "min floor holds" true min_o.Analysis.Perf_gate.ok;
      Alcotest.(check bool) "max floor trips at 0 tolerance" false
        max_o.Analysis.Perf_gate.ok
  | _ -> Alcotest.fail "wrong outcome count");
  (* tolerance loosens: 5.0 * 1.1 = 5.5 covers the 5.2. *)
  (match Analysis.Perf_gate.check ~tolerance:0.1 ~read:read_sample gate_floors with
  | outcomes ->
      Alcotest.(check bool) "all hold at 10% tolerance" true
        (List.for_all (fun o -> o.Analysis.Perf_gate.ok) outcomes));
  (* A missing report fails its floors rather than skipping them. *)
  (match Analysis.Perf_gate.check ~tolerance:0.5 ~read:(fun _ -> None) gate_floors with
  | outcomes ->
      Alcotest.(check bool) "missing file fails" true
        (List.for_all (fun o -> not o.Analysis.Perf_gate.ok) outcomes));
  (* An injected regression fails even at a generous tolerance. *)
  let slow =
    "{ \"events_per_sec\": 4.0e5, \"minor_words_per_event\": 5.2 }"
  in
  match
    Analysis.Perf_gate.check ~tolerance:0.25
      ~read:(fun _ -> Some slow)
      gate_floors
  with
  | min_o :: _ ->
      Alcotest.(check bool) "regression caught" false min_o.Analysis.Perf_gate.ok
  | [] -> Alcotest.fail "no outcomes"

let test_min_cores_floors () =
  (* Parsing: the optional fifth token. *)
  (match
     Analysis.Perf_gate.parse_floors
       "BENCH_pr9.json speedup_4 min 1.6 min-cores=4"
   with
  | Ok [ f ] ->
      Alcotest.(check (option int)) "min-cores parsed" (Some 4)
        f.Analysis.Perf_gate.min_cores
  | Ok _ -> Alcotest.fail "wrong floor count"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Analysis.Perf_gate.parse_floors bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted bad fifth token: " ^ bad))
    [
      "B.json k min 1 min-cores=0";
      "B.json k min 1 min-cores=-2";
      "B.json k min 1 min-cores=four";
      "B.json k min 1 cores=4";
    ];
  (* The skip: enforced only when the report's own host_cores is
     large enough. *)
  let floor =
    {
      Analysis.Perf_gate.file = "B.json";
      key = "speedup_4";
      direction = Analysis.Perf_gate.Min;
      bound = 1.6;
      min_cores = Some 4;
    }
  in
  let outcome report =
    List.hd (Analysis.Perf_gate.check ~tolerance:0. ~read:(fun _ -> report) [ floor ])
  in
  let o = outcome (Some "{ \"host_cores\": 1, \"speedup_4\": 0.9 }") in
  Alcotest.(check (pair bool bool)) "small host: skipped, passing" (true, true)
    (o.Analysis.Perf_gate.ok, o.Analysis.Perf_gate.skipped);
  let o = outcome (Some "{ \"speedup_4\": 0.9 }") in
  Alcotest.(check (pair bool bool)) "host_cores absent: skipped" (true, true)
    (o.Analysis.Perf_gate.ok, o.Analysis.Perf_gate.skipped);
  let o = outcome (Some "{ \"host_cores\": 8, \"speedup_4\": 1.7 }") in
  Alcotest.(check (pair bool bool)) "big host, good value: enforced ok"
    (true, false)
    (o.Analysis.Perf_gate.ok, o.Analysis.Perf_gate.skipped);
  let o = outcome (Some "{ \"host_cores\": 8, \"speedup_4\": 0.9 }") in
  Alcotest.(check (pair bool bool)) "big host, bad value: fails" (false, false)
    (o.Analysis.Perf_gate.ok, o.Analysis.Perf_gate.skipped);
  let o = outcome None in
  Alcotest.(check (pair bool bool)) "unreadable report still fails"
    (false, false)
    (o.Analysis.Perf_gate.ok, o.Analysis.Perf_gate.skipped)

let test_trajectory () =
  let r1 = "{ \"events_per_sec\": 2.0e5, \"sim_events\": 1000 }" in
  let r2 = sample_report in
  match Analysis.Perf_gate.trajectory [ ("BENCH_a.json", r1); ("BENCH_pr7.json", r2) ] with
  | [ _; b ] ->
      Alcotest.(check (float 1e-9)) "per-target counts summed" 50483243.
        b.Analysis.Perf_gate.sim_events;
      Alcotest.(check (float 1e-9)) "cumulative running sum" 50484243.
        b.Analysis.Perf_gate.cumulative_events;
      Alcotest.(check (option (float 1e-3))) "throughput carried" (Some 1.25e6)
        b.Analysis.Perf_gate.events_per_sec;
      Alcotest.(check (option (float 1e-9))) "no speedup keys -> None" None
        b.Analysis.Perf_gate.speedup_4
  | _ -> Alcotest.fail "wrong row count"

let test_trajectory_speedup_row () =
  let r =
    "{ \"events_per_sec\": 1.0e6, \"speedup_2\": 0.84, \"speedup_4\": 1.9, \
     \"sim_events\": 10 }"
  in
  match Analysis.Perf_gate.trajectory [ ("BENCH_pr9.json", r) ] with
  | [ row ] ->
      Alcotest.(check (option (float 1e-9))) "speedup_2" (Some 0.84)
        row.Analysis.Perf_gate.speedup_2;
      Alcotest.(check (option (float 1e-9))) "speedup_4" (Some 1.9)
        row.Analysis.Perf_gate.speedup_4
  | _ -> Alcotest.fail "wrong row count"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "network"
    [
      ( "sketch",
        [
          Alcotest.test_case "basics and side bins" `Quick test_sketch_basics;
          Alcotest.test_case "rejects bad inputs" `Quick test_sketch_rejects;
          QCheck_alcotest.to_alcotest prop_sketch_quantile_within_bin;
          QCheck_alcotest.to_alcotest prop_sketch_merge_associative;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "pool recycles with zero orphans" `Quick
            test_pool_recycles_no_orphans;
          Alcotest.test_case "jobs 1/2/4 byte-identical" `Slow
            test_network_jobs_deterministic;
          Alcotest.test_case "predictive jobs 1/2/4 byte-identical" `Slow
            test_predictive_jobs_deterministic;
          Alcotest.test_case "invalid configs rejected" `Quick
            test_validate_config_rejects;
          Alcotest.test_case "small-scale shape and sketch agreement" `Slow
            test_small_scale_shape_and_sketch_agreement;
        ] );
      ( "shard",
        [
          QCheck_alcotest.to_alcotest prop_relay_shard_true_partition;
          QCheck_alcotest.to_alcotest prop_slot_ranges_tile;
          Alcotest.test_case "shards 1-4 identical" `Slow
            test_sharded_results_identical;
          Alcotest.test_case "shards identical under churn" `Slow
            test_sharded_with_churn_identical;
          Alcotest.test_case "predictive shards identical" `Slow
            test_predictive_sharded_identical;
        ] );
      ( "check",
        [
          Alcotest.test_case "reintroduced pool bug is caught" `Slow
            test_disabled_pool_release_is_caught;
          Alcotest.test_case "unordered exchange is caught" `Slow
            test_unordered_exchange_is_caught;
        ] );
      ( "cli",
        [
          Alcotest.test_case "sharded runs byte-identical" `Slow
            test_cli_sharded_byte_identical;
          Alcotest.test_case "bad CIRCUITSTART_JOBS rejected" `Quick
            test_cli_rejects_bad_jobs_env;
          Alcotest.test_case "bad --strategy rejected" `Slow
            test_cli_rejects_bad_strategy;
        ] );
      ( "perf-gate",
        [
          Alcotest.test_case "number scanner" `Quick test_find_number;
          Alcotest.test_case "floors file parsing" `Quick test_parse_floors;
          Alcotest.test_case "floors, tolerance, regression" `Quick
            test_check_floors;
          Alcotest.test_case "min-cores floors" `Quick test_min_cores_floors;
          Alcotest.test_case "trajectory rows" `Quick test_trajectory;
          Alcotest.test_case "trajectory speedup row" `Quick
            test_trajectory_speedup_row;
        ] );
    ]
