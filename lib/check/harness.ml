(* The differential scenario harness behind [torsim check].

   Per scenario, four runs:

   1. oracle run        — all selected invariant oracles attached;
   2. repeat oracle run — must produce a byte-identical result
                          (same-seed determinism);
   3. plain pool run    — [run_many ~jobs:1], no probes: must equal the
                          oracle run byte-for-byte (oracle passivity);
   4. batch pool run    — after the sweep, every scenario's task again
                          through [run_many ~jobs:4] in one batch: each
                          result must equal its [~jobs:1] twin
                          (scheduling-independence of the domain pool).

   Results are compared by digest of their marshalled bytes: the
   experiment result records are plain data, so equal digests mean
   byte-identical observable outcomes.  A failing scenario is shrunk
   greedily over {!Scenario.shrink_candidates} and reported as a
   replayable one-line reproducer. *)

type failure = {
  index : int;
  scenario : Scenario.t;
  shrunk : Scenario.t;
  reason : string;
}

type report = {
  runs : int;
  seed : int;
  failures : failure list;
}

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* The network experiment's end-of-run pool audit, expressed as oracle
   violations.  The experiment is round-level — there are no cells or
   link events for the fire-probe oracles to watch — so its invariant
   is checked from the result record instead: after every circuit is
   torn down, no relay may retain occupancy from a recycled pool
   entry. *)
let pool_violations (r : Workload.Network_experiment.result) =
  if r.orphaned_circuits = 0 && r.orphaned_cells = 0 then []
  else
    [
      {
        Oracle.oracle = "pool";
        at = r.end_time;
        detail =
          Printf.sprintf
            "pool recycling leaked relay occupancy: %d orphaned circuit \
             registrations, %d orphaned queued cells after full teardown"
            r.orphaned_circuits r.orphaned_cells;
      };
    ]

(* The churn oracles, also result-record checks: (1) no circuit may
   take a round through a relay whose departure completed — its churn
   tick's kill pass must have torn it down first; (2) a completed departure leaves
   the relay with zero routing entries and zero queued bytes — drain
   and crash teardown alike release everything they charged. *)
let churn_violations (r : Workload.Network_experiment.result) =
  let violation oracle detail = { Oracle.oracle; at = r.end_time; detail } in
  List.concat
    [
      (if r.rounds_through_down = 0 then []
       else
         [
           violation "churn"
             (Printf.sprintf
                "circuits extended through departed relays: %d rounds taken \
                 through a down hop (%d departures, %d kills)"
                r.rounds_through_down r.churn_departs r.churn_kills);
         ]);
      (if r.depart_residue = 0 then []
       else
         [
           violation "drain"
             (Printf.sprintf
                "completed departures left occupancy behind: %d relays with \
                 live routing entries or queued cells after departure"
                r.depart_residue);
         ]);
    ]

(* What the harness needs of one scenario kind: its experiment config,
   one run with the oracle's probes attached (round-level kinds have
   no cells or links to probe and ignore it), the laws read off the
   result record, and the plain pool runner. *)
type runner =
  | Runner : {
      config : Scenario.t -> 'c;
      probed : Oracle.t -> int -> 'c -> 'r;
      audit : 'r -> Oracle.violation list;
      run_many : ?jobs:int -> (int * 'c) list -> 'r list;
    }
      -> runner

(* Recovery and overload scenarios are two configs of the one
   packet-level session world. *)
let session_runner config =
  Runner
    {
      config;
      probed =
        (fun oracle seed c ->
          Workload.Overload_experiment.run ~seed ~probe:(Oracle.attach oracle)
            ~relay_probe:(Oracle.attach_relays oracle) c);
      audit = (fun _ -> []);
      run_many = Workload.Overload_experiment.run_many;
    }

let network_runner config audit =
  Runner
    {
      config;
      probed = (fun _ seed c -> Workload.Network_experiment.run ~seed c);
      audit;
      run_many = Workload.Network_experiment.run_many;
    }

let runner = function
  | Scenario.Faults ->
      Runner
        {
          config = Scenario.fault_config;
          probed =
            (fun oracle seed c ->
              Workload.Fault_experiment.run ~seed ~probe:(Oracle.attach oracle) c);
          audit = (fun _ -> []);
          run_many = Workload.Fault_experiment.run_many;
        }
  | Scenario.Recovery -> session_runner Scenario.recovery_config
  | Scenario.Overload -> session_runner Scenario.overload_config
  | Scenario.Network -> network_runner Scenario.network_config pool_violations
  | Scenario.Churn ->
      network_runner Scenario.churn_config (fun r ->
          pool_violations r @ churn_violations r)

(* One oracle-instrumented run of a scenario.  Returns the result
   digest and the violations the oracles recorded. *)
let instrumented_run ~selection sc =
  let (Runner k) = runner sc.Scenario.kind in
  let oracle = Oracle.create ~selection () in
  let r = k.probed oracle sc.Scenario.seed (k.config sc) in
  Oracle.finish oracle;
  (digest r, Oracle.violations oracle @ k.audit r)

let plain_run_jobs1 sc =
  let (Runner k) = runner sc.Scenario.kind in
  digest (List.hd (k.run_many ~jobs:1 [ (sc.Scenario.seed, k.config sc) ]))

(* The round-level engine promises the same result for every shard
   count; audit it by running every round-level scenario at shards=1
   and shards=4 and comparing result digests.  This is the differential
   that catches exchange-ordering bugs — see
   [Network_experiment.unsafe_unordered_exchange]. *)
let shard_differential sc =
  match sc.Scenario.kind with
  | Scenario.Network | Scenario.Churn ->
      let config =
        match sc.Scenario.kind with
        | Scenario.Network -> Scenario.network_config sc
        | _ -> Scenario.churn_config sc
      in
      let digest_at shards =
        digest
          (Workload.Network_experiment.run ~seed:sc.Scenario.seed
             { config with Workload.Network_experiment.shards })
      in
      if digest_at 1 <> digest_at 4 then
        Some "shard differential: shards=4 result differs from shards=1"
      else None
  | _ -> None

(* The per-scenario checks (runs 1-3, plus the shard differential for
   round-level scenarios).  [Ok digest] if all pass. *)
let check_scenario ~selection sc =
  let d1, v1 = instrumented_run ~selection sc in
  if v1 <> [] then
    Error
      (Format.asprintf "oracle violation%s:@;<1 2>%a"
         (match v1 with [ _ ] -> "" | _ -> "s")
         (Format.pp_print_list ~pp_sep:Format.pp_print_space Oracle.pp_violation)
         v1)
  else
    let d2, _ = instrumented_run ~selection sc in
    if d1 <> d2 then
      Error "nondeterminism: two runs of the same seed produced different results"
    else
      let d_plain = plain_run_jobs1 sc in
      if d_plain <> d1 then
        Error
          "oracle probes perturbed the run: instrumented result differs from \
           the plain run"
      else
        match shard_differential sc with
        | Some reason -> Error reason
        | None -> Ok d1

(* Run 4: the whole batch of surviving scenarios through the domain
   pool with 4 workers; each result must match its jobs=1 digest. *)
let jobs_differential passed =
  List.concat_map
    (fun kind ->
      match List.filter (fun (_, sc, _) -> sc.Scenario.kind = kind) passed with
      | [] -> []
      | batch ->
          let (Runner k) = runner kind in
          let results =
            k.run_many ~jobs:4
              (List.map (fun (_, sc, _) -> (sc.Scenario.seed, k.config sc)) batch)
          in
          List.concat
            (List.map2
               (fun (i, sc, d1) r -> if digest r <> d1 then [ (i, sc) ] else [])
               batch results))
    Scenario.[ Faults; Recovery; Overload; Network; Churn ]

(* Greedy shrink: walk to structurally simpler scenarios while the
   failure (any failure) persists.  Bounded, so a flaky non-failure
   cannot loop. *)
let shrink ~selection sc0 =
  let still_fails sc = Result.is_error (check_scenario ~selection sc) in
  let rec go sc budget =
    if budget = 0 then sc
    else
      match List.find_opt still_fails (Scenario.shrink_candidates sc) with
      | Some smaller -> go smaller (budget - 1)
      | None -> sc
  in
  go sc0 24

let pp_failure fmt f =
  Format.fprintf fmt
    "@[<v 2>FAIL scenario #%d: %s@,seed line:   %s@,shrunk to:   %s@,replay:      torsim check --replay '%s'@]"
    f.index f.reason
    (Scenario.to_string f.scenario)
    (Scenario.to_string f.shrunk)
    (Scenario.to_string f.shrunk)

let write_reproducers path failures =
  let oc = open_out path in
  List.iter
    (fun f -> output_string oc (Scenario.to_string f.shrunk ^ "\n"))
    failures;
  close_out oc

let run ?(selection = Oracle.all) ?only ?strat ?out ~runs ~seed ppf =
  let failures = ref [] in
  let passed = ref [] in
  for index = 0 to runs - 1 do
    let sc = Scenario.generate ?only ?strat ~seed ~index () in
    match check_scenario ~selection sc with
    | Ok d -> passed := (index, sc, d) :: !passed
    | Error reason ->
        let shrunk = shrink ~selection sc in
        failures := { index; scenario = sc; shrunk; reason } :: !failures
  done;
  let passed = List.rev !passed in
  (* jobs 1 vs 4 must agree for every scenario that passed alone. *)
  List.iter
    (fun (index, sc) ->
      let shrunk = shrink ~selection sc in
      failures :=
        {
          index;
          scenario = sc;
          shrunk;
          reason = "jobs differential: --jobs 4 result differs from --jobs 1";
        }
        :: !failures)
    (jobs_differential passed);
  let failures = List.sort (fun a b -> compare a.index b.index) !failures in
  let report = { runs; seed; failures } in
  (match failures with
  | [] ->
      Format.fprintf ppf
        "check: %d/%d scenarios passed (seed %d, oracles %s, jobs 1=4)@." runs
        runs seed
        (Oracle.selection_to_string selection)
  | _ ->
      List.iter (fun f -> Format.fprintf ppf "%a@." pp_failure f) failures;
      Format.fprintf ppf "check: %d/%d scenarios FAILED (seed %d, oracles %s)@."
        (List.length failures) runs seed
        (Oracle.selection_to_string selection);
      match out with
      | Some path ->
          write_reproducers path failures;
          Format.fprintf ppf "reproducers written to %s@." path
      | None -> ());
  report

let replay ?(selection = Oracle.all) line ppf =
  match Scenario.of_string line with
  | Error msg -> Error msg
  | Ok sc -> (
      Format.fprintf ppf "replaying: %s@." (Scenario.to_string sc);
      (* A line can parse and still be nonsense (relays <= hops, zero
         bytes, ...): the experiment's config validation rejects it with
         [Invalid_argument], which we surface as a friendly one-line
         error instead of a crash. *)
      match check_scenario ~selection sc with
      | exception Invalid_argument msg ->
          Error (Printf.sprintf "invalid scenario: %s" msg)
      | Ok _ ->
          Format.fprintf ppf "replay: scenario passes (oracles %s)@."
            (Oracle.selection_to_string selection);
          Ok true
      | Error reason ->
          Format.fprintf ppf "replay: scenario FAILS: %s@." reason;
          Ok false)
