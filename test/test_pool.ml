(* Engine.Pool: the domain pool behind every parallel sweep.

   Two families of tests: the pool mechanics themselves (order
   preservation, exception protocol, argument validation), and the
   determinism registry (determinism.ml): its unsharded entries give
   byte-identical results whatever the jobs count, and planted order
   dependences fail it. *)

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
  (* CIRCUITSTART_JOBS outranks the detected core count; a malformed
     value must not make [default_jobs] raise. *)
  with_env "CIRCUITSTART_JOBS" "3" (fun () ->
      Alcotest.(check int) "env var honored" 3 (Engine.Pool.default_jobs ()));
  with_env "CIRCUITSTART_JOBS" "nope" (fun () ->
      Alcotest.(check bool) "malformed value ignored, stays total" true
        (Engine.Pool.default_jobs () >= 1))

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
(* Determinism: the registry (determinism.ml) and its planted defects *)

(* The property catches an exchange applied in place instead of at the
   barrier: under the hook the shards step in sequence, so the result
   depends on the shard count, deterministically. *)
let test_unordered_exchange_is_caught () =
  Workload.Network_experiment.unsafe_unordered_exchange := true;
  Fun.protect
    ~finally:(fun () -> Workload.Network_experiment.unsafe_unordered_exchange := false)
    (fun () ->
      List.iter
        (fun (e : Determinism.entry) ->
          if e.sharded then
            Alcotest.(check bool) (e.name ^ " fails the property") false
              (Seq.is_empty (Determinism.mismatches e)))
        Determinism.registry)

(* A planted order dependence in a pool-run fault sweep: each task
   folds a per-domain counter into its seed, and the counter is never
   reset and starts at the id of its domain.  At jobs=1 the calling
   domain (id 0) counts 0, 1, 2.  In any later run the first task runs
   either in the calling domain, whose counter the reference run left
   at 3 or more, or in a spawned domain, whose id is positive.  Its
   seed, which the result carries, moves either way: every parallel run
   must fail, whatever the scheduling. *)
let test_pool_order_dependence_is_caught () =
  let counter = Domain.DLS.new_key (fun () -> ref (Domain.self () :> int)) in
  let leaky =
    {
      Determinism.name = "per-domain seed offset";
      sharded = false;
      run =
        (fun ~jobs ~shards:_ ~seeds ->
          Determinism.digest
            (Engine.Pool.map_list ~jobs
               (fun (seed, config) ->
                 let n = Domain.DLS.get counter in
                 let seed = seed + !n in
                 incr n;
                 (seed, Workload.Fault_experiment.run ~seed config))
               (Determinism.scenario_tasks Check.Scenario.Faults Check.Scenario.fault_config
                  seeds)));
    }
  in
  Alcotest.(check (list string)) "every parallel run differs"
    [ "jobs=2 shards=1"; "jobs=4 shards=1" ]
    (List.of_seq (Determinism.mismatches leaky))

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
        List.filter_map
          (fun (e : Determinism.entry) ->
            if e.sharded then None
            else Some (Alcotest.test_case e.name `Slow (Determinism.check e)))
          Determinism.registry
        @ [
            Alcotest.test_case "planted unordered exchange is caught" `Slow
              test_unordered_exchange_is_caught;
            Alcotest.test_case "planted pool-order dependence is caught" `Slow
              test_pool_order_dependence_is_caught;
          ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_pool_matches_array_map ] );
    ]
