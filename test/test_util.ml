(* Helpers shared across the test executables: the jobs-determinism
   check (one copy instead of three), the golden-fixture renderers, and
   the fixed experiment configurations behind the committed golden
   traces.  Every test executable in this directory links the same
   module set, so these are available everywhere without ceremony. *)

(* [check_jobs_deterministic run_many] asserts that a parallel sweep is
   byte-identical to the sequential one: [run_many jobs] for each entry
   of [jobs] must equal [run_many 1].  Structural [compare] instead of
   [=] so NaN-valued fields (e.g. empty Online accumulators) compare
   equal to themselves. *)
let check_jobs_deterministic ?(jobs = [ 2; 4 ]) run_many =
  let reference = run_many 1 in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d byte-identical to jobs=1" j)
        true
        (compare (run_many j) reference = 0))
    jobs

(* A round-level run stops at the first exchange barrier at or after
   its lifetime goal.  A slot completes at most one circuit per window
   (a circuit's first round lands in a later window than its arrival),
   so the overshoot is below one lifetime per slot. *)
let check_stops_at_goal (config : Workload.Network_experiment.config)
    (r : Workload.Network_experiment.result) =
  let goal = Workload.Network_experiment.lifetimes_goal config in
  Alcotest.(check bool)
    (Printf.sprintf "goal %d met within one window (%d completed, %d slots)"
       goal r.completed config.slots)
    true
    (r.completed >= goal && r.completed < goal + config.slots)

(* ------------------------------------------------------------------ *)
(* Golden-fixture rendering *)

(* Serialize an event list through a fresh registry so the CSV is the
   exact bytes [Engine.Trace.events_to_csv] emits for these events. *)
let events_csv events =
  let t = Engine.Trace.create () in
  List.iter
    (fun (e : Engine.Trace.event) ->
      Engine.Trace.record_event t e.kind ~subject:e.subject ~detail:e.detail
        e.time)
    events;
  let buf = Buffer.create 1024 in
  Engine.Trace.events_to_csv t buf;
  Buffer.contents buf

(* Render a cwnd trace as CSV.  Times at nanosecond precision so the
   fixture pins the exact schedule, not a rounded shadow of it. *)
let cwnd_csv samples =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time_s,cwnd_cells\n";
  Array.iter
    (fun (time, v) ->
      Buffer.add_string buf
        (Printf.sprintf "%.9f,%g\n" (Engine.Time.to_sec_f time) v))
    samples;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The runs behind the committed golden traces.  Small enough to run in
   well under a second each, disturbed enough that the event logs are
   non-trivial.  Changing any of these invalidates the fixtures:
   regenerate with
     CIRCUITSTART_UPDATE_GOLDEN=test/golden dune exec test/test_golden.exe
   and commit the diff deliberately. *)

let golden_seed = 42

let golden_fault_config =
  {
    Workload.Fault_experiment.default_config with
    Workload.Fault_experiment.transfer_bytes = Engine.Units.kib 32;
    loss = Some (Netsim.Faults.Bernoulli 0.01);
    outage = (Some (Engine.Time.ms 200, Engine.Time.ms 450));
  }

let golden_recovery_config =
  {
    Workload.Overload_experiment.recovery_config with
    Workload.Overload_experiment.transfer_bytes = Engine.Units.kib 32;
    crash_at = Some (Engine.Time.ms 200);
  }

let golden_trace_config =
  {
    Workload.Trace_experiment.default_config with
    Workload.Trace_experiment.transfer_bytes = Engine.Units.kib 128;
    horizon = Engine.Time.s 5;
  }

(* The same seeded world under the other two startup strategies: the
   three trace fixtures differ only in the controller, so a diff in one
   of them localizes a behaviour change to that strategy. *)
let golden_trace_config_slowstart =
  { golden_trace_config with
    Workload.Trace_experiment.strategy = Circuitstart.Controller.Slow_start;
  }

let golden_trace_config_predictive =
  { golden_trace_config with
    Workload.Trace_experiment.strategy = Circuitstart.Controller.Predictive;
  }

(* ------------------------------------------------------------------ *)
(* A built executable ([path] relative to the project root), for tests
   that drive it as a subprocess.  Under `dune runtest` the cwd is
   _build/default/test; under `dune exec test/<name>.exe` it is the
   project root.  A missing binary must be a loud failure, not a
   vacuous nonzero exit. *)

let built_exe path =
  match
    List.find_opt Sys.file_exists [ "../" ^ path; "_build/default/" ^ path ]
  with
  | Some p -> p
  | None -> Alcotest.failf "%s not built" path

let torsim_exe () = built_exe "bin/torsim.exe"
