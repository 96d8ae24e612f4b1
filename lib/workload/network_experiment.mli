(** Consensus-scale network workload: a whole-Tor-network-shaped
    population at round granularity.

    The paper's F1c evaluates 50 circuits on a small star; this
    experiment scales the same CS-vs-SS question to thousands of relays
    and 10^5+ concurrent circuits by moving the data plane from
    per-cell events to one event per circuit per RTT round.  Per round
    a circuit delivers [min cwnd bdp] cells against its bottleneck
    relay's fair share ([capacity / active circuits]) and moves its
    window by {!Circuitstart.Controller.Round_law}: double while
    ramping, then on reaching [bdp] either compensate to it
    (CircuitStart) or halve and climb back linearly (slow start).
    [bdp] is the true fair share times the circuit's RTT, an oracle
    that no packet-level controller sees, so this is not the
    controller's own law at round granularity: the ramp exit and the
    compensation target are given, not measured.  At small scale the
    resulting TTLB CDFs reproduce the F1c star shape; at full scale a
    run completes millions of circuit lifetimes.

    What makes that affordable:

    - {b Flat circuit state} — each circuit is a strided record in one
      flat int array, slot [i]'s record pinned at a fixed offset and
      reused by every circuit the slot hosts; relay occupancy is
      [active]/[load_cells] counters charged and credited like
      {!Tor_model.Switchboard}'s budget counters (admission is
      literally {!Tor_model.Switchboard.within_budget}); arrival and
      teardown allocate nothing.
    - {b Streaming analysis} — TTLBs go straight into fixed-bin
      {!Engine.Stats.Sketch}es (O(1) memory per circuit); exact
      retention is opt-in ([retain_exact]) for small-scale validation.

    The workload is a closed population of [slots] sessions cycling
    exponential think time → circuit arrival → rounds → teardown, which
    yields Poisson-like arrivals and departures at a pinned concurrency
    ceiling; [elephant_fraction] of arrivals are bulk transfers, the
    rest mice, and an optional diurnal wave modulates the arrival rate.

    There is no event queue: each slot holds its one pending event
    instant, and the run advances in exchange windows no wider than
    the smallest achievable circuit RTT.  Per window each shard sweeps
    its slots once in ascending order, running each slot's events due
    by the window's end.  Within a window every shard reads relay
    occupancy as it stood at the last barrier; occupancy changes are
    folded in, and churn and epoch ticks fire, at the barriers.  Paired
    strategies share every population, arrival and size draw.

    Four parameters of the round model are constants, not config
    fields: a ramp starts at a window of 1 cell and no window exceeds
    10 000 cells (both in {!Circuitstart.Controller.Round_law}), every
    client and server sits behind a 10 ms access link
    ([access_delay]), and an arrival refused admission redraws its path
    up to 4 times ([max_path_redraws]) before it counts in
    [refused_arrivals]. *)

type config = {
  relays : int;  (** Population size; at least 4. *)
  slots : int;  (** Concurrent session slots = circuit-pool size. *)
  target_lifetimes : int;
      (** Stop after this many completed circuits; [0] = [10 * slots]. *)
  duration : Engine.Time.t;
      (** Optional sim-time horizon; [zero] = until the lifetime goal. *)
  population : Relay_gen.config;
      (** Log-normal (heavy-tailed) bandwidth population. *)
  budget : Tor_model.Switchboard.budget;
      (** Per-relay admission budget applied to the flat occupancy
          counters; {!Tor_model.Switchboard.no_budget} = admit all. *)
  mean_think : Engine.Time.t;
      (** Mean exponential think time between a slot's circuits. *)
  diurnal_amplitude : float;
      (** [0] = flat load; else the arrival rate is modulated by
          [1 + a sin(2πt/period)].  Must be in [\[0, 0.95\]]. *)
  diurnal_period : Engine.Time.t;
  elephant_fraction : float;  (** Fraction of arrivals that are bulk. *)
  elephant_cells : int;
  mice_cells : int;
  leave_hazard : float;
      (** Per-relay per-second hazard of an up relay leaving; tried
          once per [churn_tick].  [0] (with [join_hazard] 0) disables
          churn entirely: no churn timers are armed and the run is
          byte-identical to the churn-free workload. *)
  join_hazard : float;
      (** Per-relay per-second hazard of a down relay (re)joining. *)
  crash_fraction : float;
      (** Probability in [\[0, 1\]] that a departure is a crash (its
          circuits die immediately) rather than a graceful drain
          (admissions refused, existing circuits run until
          [drain_grace], then die). *)
  drain_grace : Engine.Time.t;
  epoch_period : Engine.Time.t;
      (** Directory snapshot refresh: clients draw paths from the
          population as of the last boundary, so draws race departures
          by up to one period (failed attempts count in [gone_draws] /
          [draining_refusals]). *)
  churn_tick : Engine.Time.t;  (** Hazard-trial granularity. *)
  spare_relays : int;
      (** Extra relays that start down (and invisible) and join under
          [join_hazard]. *)
  strategy : Circuitstart.Controller.strategy;
  sketch_bins : int;
  sketch_max : Engine.Time.t;  (** Upper edge of the TTLB sketches. *)
  retain_exact : bool;
      (** Also retain exact TTLBs (small scale only — O(n) memory). *)
  shards : int;
      (** Within-run parallelism, at least 1 (the default).  The
          circuit slots are partitioned into [min shards slots]
          contiguous shards ({!Shard.slot_range}), each swept on its
          own domain, advancing in lockstep exchange windows with a
          barrier at every boundary.  The result is a
          function of (seed, config) alone, whatever [--jobs] and
          [--shards] are: the shard count chooses how the schedule
          executes, never what it computes. *)
}

val default_config : config
(** 200 relays, 2000 slots, 20k lifetimes, 5% elephants of 4096 cells
    over 32-cell mice, no budget, no diurnal wave. *)

val validate_config : config -> (config, string) result

val lifetimes_goal : config -> int
(** The effective lifetime target: [target_lifetimes], or [10 * slots]
    when it is 0. *)

type result = {
  relays : int;
  slots : int;
  completed : int;
      (** Circuit lifetimes completed.  A run stops at the first
          exchange barrier at or after the lifetime goal (or at the
          [duration] horizon), so this can exceed {!lifetimes_goal} by
          less than one lifetime per slot. *)
  mice : int;  (** Completed mice. *)
  elephants : int;
      (** Completed elephants — often far below [elephant_arrivals]:
          bulk transfers outlive the measurement horizon and show up in
          [abandoned] instead, which is exactly the background load
          they exist to provide. *)
  arrivals : int;  (** Admitted circuit arrivals (all kinds). *)
  elephant_arrivals : int;
  refused_arrivals : int;
      (** Arrivals that found no admissible path and went back to
          thinking. *)
  admission_redraws : int;
  abandoned : int;  (** Circuits torn down live at the horizon. *)
  delivered_cells : int;
  rounds : int;  (** RTT-round events executed. *)
  pool_recycles : int;
      (** Arrivals served by a previously released pool record. *)
  peak_active : int;
      (** Highest concurrent circuit count, sampled at exchange
          barriers. *)
  ttlb_all : Engine.Stats.Sketch.t;
  ttlb_mice : Engine.Stats.Sketch.t;
  ttlb_elephants : Engine.Stats.Sketch.t;
  ttlb_exact : float array;
      (** Sorted ascending; [\[||\]] unless [retain_exact]. *)
  orphaned_circuits : int;
      (** Relay [active] occupancy left after every circuit was torn
          down — 0 unless pool recycling is broken. *)
  orphaned_cells : int;  (** Same for the queued-cell counters. *)
  churn_departs : int;  (** Departures begun (crashes + drains). *)
  churn_crashes : int;
  churn_drains_completed : int;  (** Drain deadlines reached. *)
  churn_restarts : int;  (** Down relays that (re)joined. *)
  churn_epochs : int;  (** Snapshot refreshes. *)
  churn_kills : int;
      (** Circuits killed by completed departures; each leaves a resume
          stash on its slot. *)
  resumed : int;
      (** Killed transfers that resumed on a fresh path (keeping their
          original start time, so the rebuild gap lands in the TTLB
          tail). *)
  gone_draws : int;
      (** Admission checks that hit a relay already down: a draw from
          a stale epoch snapshot racing a departure. *)
  draining_refusals : int;
      (** Admission checks that hit a draining relay, which refuses
          new circuits. *)
  rounds_through_down : int;
      (** Churn oracle 1's counter: rounds taken by a circuit with a
          departed hop.  Always 0 unless the kill pass is disabled. *)
  depart_residue : int;
      (** Churn oracle 2's counter: completed departures that left
          nonzero slot or byte occupancy once their churn tick's kill
          pass ran.  Each churn tick makes one pass over the slots,
          killing every circuit through any relay that departed in
          it, then checks each of those relays.  Always 0 unless the
          kill pass is disabled. *)
  end_time : Engine.Time.t;
  wall_events : int;
}

val unsafe_disable_pool_release : bool ref
(** Test/fuzz hook: when [true], teardown skips crediting the released
    circuit's occupancy back to its relays — the canonical pool-reuse
    bug.  Runs then end with nonzero orphan counters, which the check
    harness's pool oracle flags (and shrinks).  Reset it. *)

val unsafe_disable_churn_kill : bool ref
(** Test/fuzz hook: when [true], each churn tick skips its one kill
    pass over the slots — circuits keep extending through the relays
    that departed in it and their occupancy survives.  The tick's
    residue check still runs, so [rounds_through_down] and
    [depart_residue] go nonzero, which the churn oracles flag (and
    shrink).  Reset it. *)

val unsafe_unordered_exchange : bool ref
(** Test/fuzz hook: when [true], runs apply relay occupancy deltas in
    place mid-window instead of deferring them to the barrier
    exchange, so what a shard observes depends on which slots it
    co-hosts and runs with different shard counts diverge.  The check
    harness's shards=1-vs-4 differential catches the divergence and
    shrinks it to a replayable line.  While it is set, each window's
    shards step in sequence on the calling domain, in descending shard
    order, so the divergence is deterministic and differs between
    shard counts.  Reset it. *)

val run : ?seed:int -> config -> result
(** One run ([seed] defaults to 42; see [shards] for what the result
    depends on).  Raises [Invalid_argument] if the config does not
    validate or the population draws no exit. *)

val run_instrumented : ?seed:int -> config -> result * float
(** {!run} plus honest allocation accounting: the float is the total
    minor words allocated during the run summed over {e all}
    participating domains — the calling domain plus every worker
    domain of the shard team.  Kept out of {!result} so
    result digests stay comparable across instrumented and plain
    runs. *)

val run_many : ?jobs:int -> (int * config) list -> result list
(** One {!run} per task on a domain pool; results in task order,
    byte-identical to sequential mapping. *)

val with_strategy : Circuitstart.Controller.strategy -> config -> config
(** The config with its startup strategy replaced; with
    {!validate_config} and {!run_many} this makes the module an
    {!Experiment.S}. *)

val pp_result : Format.formatter -> result -> unit
