(** Paired experiments: one config run once per startup strategy on one
    seed.

    The paper's evaluation compares CircuitStart with slow start on
    identical seeds, and the predictive planner rides along as a third
    arm.  Every workload whose config carries a startup strategy and
    whose runs are seeded implements {!S}; {!compare} then runs the
    three arms as one batch on the domain pool.  The same seed gives
    each arm the identical world — topology, fault or churn schedule,
    arrivals and path draws — so any difference between the three
    results is the startup strategy's alone. *)

type 'r paired = { circuit_start : 'r; slow_start : 'r; predictive : 'r }

val label : Circuitstart.Controller.strategy -> string
(** The name tables and reports print for a strategy: [circuitstart],
    [slowstart], [predictive] or [fixed:N]. *)

val strategy_of_string :
  string -> (Circuitstart.Controller.strategy, string) Stdlib.result
(** The inverse of {!label}, case-insensitive, that also accepts the
    short codes [cs], [ss] and [pr].  [fixed:N] needs [N > 0].  The one
    strategy parser: [torsim]'s [--strategy] flags and the replay lines
    of [Check.Scenario] read strategies through it. *)

val labelled : 'r paired -> (string * 'r) list
(** The three arms with their {!label}s, in the order CircuitStart,
    slow start, predictive. *)

(** A seeded experiment with a startup strategy in its config. *)
module type S = sig
  type config
  type result

  val validate_config : config -> (config, string) Stdlib.result

  val with_strategy : Circuitstart.Controller.strategy -> config -> config
  (** The config with its startup strategy replaced. *)

  val run_many : ?jobs:int -> (int * config) list -> result list
  (** One run per [(seed, config)] task on a domain pool of [jobs]
      workers; results in task order, byte-identical to running the
      tasks one by one. *)
end

val compare :
  (module S with type config = 'c and type result = 'r) ->
  ?jobs:int ->
  ?seed:int ->
  'c ->
  'r paired
(** Run the config three times with the same seed (default 42), once
    per startup strategy; the config's own strategy is ignored.  The
    trio runs on the domain pool ([jobs] as in [run_many]). *)
