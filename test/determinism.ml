(* The determinism registry: output is a function of (seed, config),
   whatever --jobs and --shards are.

   This is the one statement of the guarantee that every paired
   comparison rests on, shared by the test executables that report
   it.  The registry lists each pool-run entry point once; an entry
   runs one task per seed on a pool of [jobs] domains ([shards] shards
   a run, for the sharded engine) and returns the Marshal digest of its
   result list, so NaN-valued fields compare equal to themselves.
   check.sh fails when a module of lib/workload exports a [run_many]
   that no entry runs.

   test_pool's determinism group checks the unsharded entries and the
   planted defects.  The sharded engine's entries report under the
   names its determinism tests have always had: the jobs runs in
   test_network's experiment group and test_churn's network group, the
   shard runs in test_network's shard group. *)

type entry = {
  name : string;
  sharded : bool;  (** Also swept over shard counts. *)
  run : jobs:int -> shards:int -> seeds:int list -> string;
}

let digest results = Digest.to_hex (Digest.string (Marshal.to_string results []))

(* The first scenario of one kind that the check harness draws from
   master seed [seed], as the (seed, config) task it runs. *)
let scenario_tasks ?strat kind config seeds =
  List.map
    (fun seed ->
      let sc = Check.Scenario.generate ~only:kind ?strat ~seed ~index:0 () in
      (sc.Check.Scenario.seed, config sc))
    seeds

let registry =
  let unsharded name run =
    { name; sharded = false; run = (fun ~jobs ~shards:_ ~seeds -> run ~jobs seeds) }
  in
  let network name ?strat kind config =
    {
      name;
      sharded = true;
      run =
        (fun ~jobs ~shards ~seeds ->
          digest
            (Workload.Network_experiment.run_many ~jobs
               (List.map
                  (fun (seed, c) -> (seed, { c with Workload.Network_experiment.shards }))
                  (scenario_tasks ?strat kind config seeds))));
    }
  in
  [
    (* The engines below take small fixed configs; the three with no
       seed of their own vary their config by seed instead. *)
    unsharded "star sweep" (fun ~jobs seeds ->
        digest
          (Workload.Star_experiment.run_many ~jobs
             (List.map
                (fun seed ->
                  { Workload.Star_experiment.default_config with
                    Workload.Star_experiment.circuit_count = 4;
                    relay_count = 8;
                    transfer_bytes = Engine.Units.kib 64;
                    horizon = Engine.Time.s 30;
                    seed;
                  })
                seeds)));
    unsharded "trace sweep" (fun ~jobs seeds ->
        digest
          (Workload.Trace_experiment.run_many ~jobs
             (List.map
                (fun seed ->
                  { Test_util.golden_trace_config with
                    Workload.Trace_experiment.bottleneck_distance = 1 + (seed mod 3);
                    transfer_bytes = Engine.Units.kib 64;
                  })
                seeds)));
    unsharded "adaptive sweep" (fun ~jobs seeds ->
        digest
          (Workload.Adaptive_experiment.run_many ~jobs
             (List.map
                (fun seed ->
                  { Workload.Adaptive_experiment.adaptive = seed mod 2 = 1;
                    stepped_rate = Engine.Units.Rate.mbit_f (0.25 *. float_of_int seed);
                  })
                seeds)));
    unsharded "contention sweep" (fun ~jobs seeds ->
        digest
          (Workload.Contention_experiment.run_many ~jobs
             (List.map
                (fun seed ->
                  { Workload.Contention_experiment.cbr_load =
                      0.25 *. float_of_int (seed mod 3);
                    transfer_bytes = Engine.Units.kib 256;
                  })
                seeds)));
    (* The Experiment.S engines run the check harness's worlds. *)
    unsharded "fault sweep" (fun ~jobs seeds ->
        digest
          (Workload.Fault_experiment.run_many ~jobs
             (scenario_tasks Check.Scenario.Faults Check.Scenario.fault_config seeds)));
    (* Experiment.compare runs a config's three strategy arms on the
       pool. *)
    unsharded "fault strategy comparison" (fun ~jobs seeds ->
        digest
          (List.map
             (fun (seed, config) ->
               Workload.Experiment.compare
                 (module Workload.Fault_experiment)
                 ~jobs ~seed config)
             (scenario_tasks Check.Scenario.Faults Check.Scenario.fault_config seeds)));
    unsharded "recovery sweep" (fun ~jobs seeds ->
        digest
          (Workload.Overload_experiment.run_many ~jobs
             (scenario_tasks Check.Scenario.Recovery Check.Scenario.recovery_config
                seeds)));
    unsharded "flash-crowd sweep" (fun ~jobs seeds ->
        digest
          (Workload.Overload_experiment.run_many ~jobs
             (scenario_tasks Check.Scenario.Overload Check.Scenario.overload_config
                seeds)));
    network "network sweep" Check.Scenario.Network Check.Scenario.network_config;
    network "predictive network sweep" ~strat:Circuitstart.Controller.Predictive
      Check.Scenario.Network Check.Scenario.network_config;
    network "churn network sweep" Check.Scenario.Churn Check.Scenario.churn_config;
  ]

let find name = List.find (fun e -> e.name = name) registry

let seeds = [ 1; 2; 3 ]

(* Above every slot count the scenario generator draws (4 to 16), so
   the engine clamps it to one shard per slot. *)
let above_slots = 1_000

(* The (jobs, shards) runs compared with jobs=1, shards=1: every entry
   at jobs 2 and 4; the sharded engine also at shards 2, 3 and 4 (two
   runs at once for 2 and 4) and above its slot count. *)
let jobs_runs = [ (2, 1); (4, 1) ]
let shard_runs = [ (2, 2); (1, 3); (2, 4); (1, above_slots) ]

(* The property: the runs (by default every run of the entry) whose
   digest differs from the entry's digest at jobs=1, shards=1,
   computed as they are read. *)
let mismatches ?runs e =
  let runs =
    match runs with
    | Some runs -> runs
    | None -> jobs_runs @ if e.sharded then shard_runs else []
  in
  let reference = e.run ~jobs:1 ~shards:1 ~seeds in
  List.to_seq runs
  |> Seq.filter_map (fun (jobs, shards) ->
         if e.run ~jobs ~shards ~seeds = reference then None
         else Some (Printf.sprintf "jobs=%d shards=%d" jobs shards))

let check ?runs e () =
  Alcotest.(check (list string))
    (e.name ^ ": runs that differ") [] (List.of_seq (mismatches ?runs e))
