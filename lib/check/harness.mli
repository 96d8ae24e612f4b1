(** The randomized differential scenario harness ([torsim check]).

    Samples {!Scenario} values deterministically from a master seed and
    subjects each to four runs: an oracle-instrumented run (all
    {!Oracle} laws on), a repeat of it (same-seed determinism), a plain
    [--jobs 1] pool run (oracle passivity — probes must not change the
    result), and, batched over every surviving scenario, a [--jobs 4]
    pool run that must agree with [--jobs 1] result-for-result.
    Results are compared by digest of their marshalled bytes.

    A failing scenario is shrunk greedily to a structurally simpler one
    that still fails, and reported as a one-line reproducer replayable
    with [torsim check --replay '<line>']. *)

type failure = {
  index : int;  (** Scenario index within the sampled sweep. *)
  scenario : Scenario.t;  (** As originally sampled. *)
  shrunk : Scenario.t;  (** Smallest variant still failing. *)
  reason : string;
}

type report = { runs : int; seed : int; failures : failure list }

val run :
  ?selection:Oracle.selection ->
  ?only:Scenario.kind ->
  ?strat:Scenario.strategy ->
  ?out:string ->
  runs:int ->
  seed:int ->
  Format.formatter ->
  report
(** [run ~runs ~seed ppf] checks [runs] scenarios sampled from [seed],
    printing progress and failures to [ppf].  [selection] (default
    {!Oracle.all}) restricts the invariant oracles; [only] pins every
    sampled scenario to one kind ([torsim check --kind], e.g. a
    churn-only nightly sweep); [strat] pins every sampled scenario's
    startup strategy ([torsim check --strategy], e.g. a
    predictive-only nightly sweep); [out] names a file that receives
    one shrunk reproducer line per failure (written only when there
    are failures). *)

val replay :
  ?selection:Oracle.selection ->
  string ->
  Format.formatter ->
  (bool, string) result
(** [replay line ppf] parses a reproducer line and re-checks that one
    scenario.  [Ok true] if it passes, [Ok false] if it (still) fails,
    [Error] if the line does not parse. *)

val check_scenario :
  selection:Oracle.selection -> Scenario.t -> (string, string) result
(** One scenario through the per-scenario checks (oracle run, repeat,
    plain [--jobs 1]); [Ok digest] on success.  Test hook: the suite
    runs single planted scenarios through it. *)

val shrink : selection:Oracle.selection -> Scenario.t -> Scenario.t
(** Greedy structural shrink while the failure persists (bounded).
    Test hook: the planted-bug tests shrink their failing scenario
    with it. *)

