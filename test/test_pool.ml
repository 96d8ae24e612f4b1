(* Engine.Pool: the domain pool behind every parallel sweep.

   Two families of tests: the pool mechanics themselves (order
   preservation, exception protocol, argument validation), and the
   tentpole guarantee that running a workload sweep on N domains is
   indistinguishable from running it sequentially — same results, in
   the same order, for the star, fault and contention experiments.
   Structural [compare] is used instead of [=] so NaN-valued fields
   (e.g. empty Online accumulators) compare equal to themselves. *)

let identical a b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* Pool mechanics *)

let test_map_order () =
  let tasks = List.init 100 Fun.id in
  let expected = List.map (fun i -> i * i) tasks in
  Alcotest.(check (list int)) "jobs=1" expected
    (Engine.Pool.map_list ~jobs:1 (fun i -> i * i) tasks);
  Alcotest.(check (list int)) "jobs=4" expected
    (Engine.Pool.map_list ~jobs:4 (fun i -> i * i) tasks);
  Alcotest.(check (list int)) "more jobs than tasks" [ 0; 1; 4 ]
    (Engine.Pool.map_list ~jobs:16 (fun i -> i * i) [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "empty" [] (Engine.Pool.map_list ~jobs:4 (fun i -> i * i) [])

let test_map_list_order () =
  let tasks = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "order preserved"
    (List.map (fun i -> 2 * i) tasks)
    (Engine.Pool.map_list ~jobs:3 (fun i -> 2 * i) tasks)

let test_invalid_jobs () =
  Alcotest.check_raises "jobs=0" (Invalid_argument "Pool.map_list: jobs must be positive")
    (fun () -> ignore (Engine.Pool.map_list ~jobs:0 Fun.id [ 1 ]))

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one worker" true (Engine.Pool.default_jobs () >= 1)

let test_exception_propagation () =
  (* Several tasks fail; the pool must re-raise the lowest-indexed
     failure no matter which domain hit which task first. *)
  let f i = if i mod 10 = 7 then failwith (Printf.sprintf "boom%d" i) else i in
  Alcotest.check_raises "lowest-indexed failure wins" (Failure "boom7") (fun () ->
      ignore (Engine.Pool.map_list ~jobs:4 f (List.init 100 Fun.id)));
  Alcotest.check_raises "sequential path too" (Failure "boom7") (fun () ->
      ignore (Engine.Pool.map_list ~jobs:1 f (List.init 100 Fun.id)))

(* ------------------------------------------------------------------ *)
(* CIRCUITSTART_JOBS *)

(* [Unix.putenv] cannot unset, but [env_jobs] treats the empty string
   as unset, so restoring to "" round-trips correctly. *)
let with_env var value f =
  let old = Option.value (Sys.getenv_opt var) ~default:"" in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var old) f

let env_jobs_result =
  Alcotest.(result (option int) string)

let check_env_jobs name value expected =
  with_env "CIRCUITSTART_JOBS" value (fun () ->
      Alcotest.check env_jobs_result name expected (Engine.Pool.env_jobs ()))

let test_env_jobs_parsing () =
  check_env_jobs "empty means unset" "" (Ok None);
  check_env_jobs "plain integer" "3" (Ok (Some 3));
  check_env_jobs "whitespace tolerated" " 5 " (Ok (Some 5));
  check_env_jobs "clamped to 128" "9999" (Ok (Some 128));
  check_env_jobs "zero rejected" "0"
    (Error "CIRCUITSTART_JOBS must be a positive integer (got 0)");
  check_env_jobs "negative rejected" "-2"
    (Error "CIRCUITSTART_JOBS must be a positive integer (got -2)");
  check_env_jobs "garbage rejected" "lots"
    (Error "CIRCUITSTART_JOBS must be a positive integer (got \"lots\")")

let test_env_jobs_feeds_default_jobs () =
  (* TORSIM_JOBS (the --jobs flag's backing variable) outranks
     CIRCUITSTART_JOBS, which outranks the detected core count; a
     malformed CIRCUITSTART_JOBS must not make [default_jobs] raise. *)
  with_env "TORSIM_JOBS" "" (fun () ->
      with_env "CIRCUITSTART_JOBS" "3" (fun () ->
          Alcotest.(check int) "env var honored" 3 (Engine.Pool.default_jobs ()));
      with_env "CIRCUITSTART_JOBS" "nope" (fun () ->
          Alcotest.(check bool) "malformed value ignored, stays total" true
            (Engine.Pool.default_jobs () >= 1)));
  with_env "TORSIM_JOBS" "7" (fun () ->
      with_env "CIRCUITSTART_JOBS" "3" (fun () ->
          Alcotest.(check int) "TORSIM_JOBS outranks" 7
            (Engine.Pool.default_jobs ())))

(* ------------------------------------------------------------------ *)
(* Team: the reusable rendezvous behind sharded runs *)

let test_team_run_and_reuse () =
  let team = Engine.Pool.Team.create ~shards:4 () in
  let acc = Array.make 4 0 in
  (* Thousands of rendezvous against the same team — the shape of one
     sharded simulation's window loop. *)
  for _ = 1 to 2_000 do
    Engine.Pool.Team.run team (fun i -> acc.(i) <- acc.(i) + i + 1)
  done;
  Engine.Pool.Team.shutdown team;
  Alcotest.(check (array int)) "every shard ran every rendezvous"
    [| 2_000; 4_000; 6_000; 8_000 |] acc

let test_team_single_shard_in_caller () =
  let team = Engine.Pool.Team.create ~shards:1 () in
  let self = Domain.self () in
  let ok = ref false in
  Engine.Pool.Team.run team (fun i -> ok := i = 0 && Domain.self () = self);
  Engine.Pool.Team.shutdown team;
  Alcotest.(check bool) "shards=1 runs in the calling domain" true !ok

let test_team_invalid_shards () =
  Alcotest.check_raises "shards=0"
    (Invalid_argument "Pool.Team.create: shards must be positive") (fun () ->
      ignore (Engine.Pool.Team.create ~shards:0 ()))

let test_team_exception_protocol () =
  let team = Engine.Pool.Team.create ~shards:4 () in
  let ran = Array.make 4 false in
  Alcotest.check_raises "lowest shard's exception wins" (Failure "shard1")
    (fun () ->
      Engine.Pool.Team.run team (fun i ->
          ran.(i) <- true;
          if i = 1 then failwith "shard1";
          if i = 3 then failwith "shard3"));
  Alcotest.(check (array bool)) "every shard still checked in"
    [| true; true; true; true |] ran;
  (* A failed rendezvous must not poison the team. *)
  let acc = Array.make 4 (-1) in
  Engine.Pool.Team.run team (fun i -> acc.(i) <- i);
  Engine.Pool.Team.shutdown team;
  Alcotest.(check (array int)) "team usable after a failure" [| 0; 1; 2; 3 |] acc

let test_team_counts_worker_allocation () =
  (* A naive [Gc.minor_words] delta only observes the calling domain:
     words allocated by the parked worker domains must show up in
     [minor_words] (the caller's own share is deliberately excluded —
     shard 0 allocates nothing here). *)
  let team = Engine.Pool.Team.create ~shards:2 () in
  Engine.Pool.Team.run team (fun shard ->
      if shard > 0 then
        ignore (Sys.opaque_identity (List.init 10_000 (fun i -> float_of_int i))));
  let words = Engine.Pool.Team.minor_words team in
  Engine.Pool.Team.shutdown team;
  Alcotest.(check bool)
    (Printf.sprintf "worker allocation visible (got %.0f words)" words)
    true (words > 20_000.)

let test_team_shutdown () =
  let team = Engine.Pool.Team.create ~shards:2 () in
  Engine.Pool.Team.run team (fun _ -> ());
  Engine.Pool.Team.shutdown team;
  Engine.Pool.Team.shutdown team;
  (* idempotent *)
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.Team.run: team is shut down") (fun () ->
      Engine.Pool.Team.run team (fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* Parallel sweeps are byte-identical to sequential ones *)

let small_star seed =
  { Workload.Star_experiment.default_config with
    Workload.Star_experiment.circuit_count = 4;
    relay_count = 8;
    transfer_bytes = Engine.Units.kib 64;
    horizon = Engine.Time.s 30;
    seed;
  }

let test_star_sweep_deterministic () =
  let configs = List.map small_star [ 1; 2; 3 ] in
  Test_util.check_jobs_deterministic (fun jobs ->
      Workload.Star_experiment.run_many ~jobs configs)

let test_fault_sweep_deterministic () =
  let small config =
    { config with Workload.Fault_experiment.transfer_bytes = Engine.Units.kib 64 }
  in
  let base = Workload.Fault_experiment.default_config in
  let tasks =
    [
      (1, small { base with loss = Some (Netsim.Faults.Bernoulli 0.01) });
      (2, small { base with crash_at = Some (Engine.Time.ms 300) });
      (3, small base);
      (4, small { base with strategy = Circuitstart.Controller.Slow_start });
    ]
  in
  Test_util.check_jobs_deterministic (fun jobs ->
      Workload.Fault_experiment.run_many ~jobs tasks)

let test_contention_sweep_deterministic () =
  let configs =
    List.map
      (fun cbr_load ->
        { Workload.Contention_experiment.cbr_load;
          transfer_bytes = Engine.Units.kib 256 })
      [ 0.; 0.25; 0.5 ]
  in
  Test_util.check_jobs_deterministic ~jobs:[ 2; 3 ] (fun jobs ->
      Workload.Contention_experiment.run_many ~jobs configs)

let test_compare_strategies_uses_pool () =
  let config =
    { Workload.Fault_experiment.default_config with
      Workload.Fault_experiment.transfer_bytes = Engine.Units.kib 64;
      loss = Some (Netsim.Faults.Bernoulli 0.005);
    }
  in
  let compare jobs =
    Workload.Experiment.compare (module Workload.Fault_experiment) ~jobs config
  in
  let seq = compare 1 in
  let par = compare 2 in
  Alcotest.(check bool) "paired comparison identical" true (identical seq par)

(* ------------------------------------------------------------------ *)

let prop_pool_matches_array_map =
  QCheck2.Test.make ~name:"Pool.map agrees with Array.map for pure functions"
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 0 64) small_int))
    (fun (jobs, xs) ->
      Engine.Pool.map_list ~jobs (fun x -> (x * 31) lxor 5) xs
      = List.map (fun x -> (x * 31) lxor 5) xs)

let () =
  Alcotest.run "pool"
    [
      ( "mechanics",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "map_list preserves order" `Quick test_map_list_order;
          Alcotest.test_case "invalid jobs rejected" `Quick test_invalid_jobs;
          Alcotest.test_case "default jobs positive" `Quick test_default_jobs_positive;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        ] );
      ( "env",
        [
          Alcotest.test_case "CIRCUITSTART_JOBS parsing" `Quick
            test_env_jobs_parsing;
          Alcotest.test_case "CIRCUITSTART_JOBS feeds default_jobs" `Quick
            test_env_jobs_feeds_default_jobs;
        ] );
      ( "team",
        [
          Alcotest.test_case "run and reuse" `Quick test_team_run_and_reuse;
          Alcotest.test_case "single shard stays in caller" `Quick
            test_team_single_shard_in_caller;
          Alcotest.test_case "invalid shards rejected" `Quick
            test_team_invalid_shards;
          Alcotest.test_case "exception protocol" `Quick
            test_team_exception_protocol;
          Alcotest.test_case "worker allocation counted" `Quick
            test_team_counts_worker_allocation;
          Alcotest.test_case "shutdown" `Quick test_team_shutdown;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "star sweep" `Slow test_star_sweep_deterministic;
          Alcotest.test_case "fault sweep" `Slow test_fault_sweep_deterministic;
          Alcotest.test_case "contention sweep" `Slow test_contention_sweep_deterministic;
          Alcotest.test_case "fault strategy comparison" `Slow
            test_compare_strategies_uses_pool;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_pool_matches_array_map ] );
    ]
