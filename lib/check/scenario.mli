(** Randomized check scenarios and their replay lines.

    A scenario is a small, fully serializable description of one
    oracle-checked run: which experiment family to drive (a fault-
    injected star via {!Workload.Fault_experiment}; the packet-level
    session world {!Workload.Overload_experiment}, either as one
    crash-and-rebuild session ([Recovery], built from its
    [recovery_config]) or as a flash crowd against budgeted relays
    that may also see a crash ([Overload]); a small consensus-scale
    round-level population via {!Workload.Network_experiment}, whose
    pooled circuit recycling the harness audits, or the same
    round-level population under a seeded churn schedule — joins,
    drains, crashes, restarts and directory epochs — whose departure
    hygiene the churn oracles audit), the topology size,
    the transfer
    size, the fault schedule and the startup strategy.  Everything that feeds the run — including the relay
    rates drawn from the {!Workload.Relay_gen} log-normal population —
    is a deterministic function of the record, so a scenario printed
    with {!to_string} replays byte-identically with
    [torsim check --replay].  *)

type kind = Faults | Recovery | Overload | Network | Churn
type strategy = Cs | Ss | Pr

val kind_of_string : string -> kind option
(** Accepts the one-letter replay codes ([f]/[r]/[o]/[n]/[c]) and the
    full lowercase names; [None] otherwise.  Backs [torsim check
    --kind]. *)

val strategy_of_string : string -> strategy option
(** Accepts the replay codes ([cs]/[ss]/[pr]) and the full lowercase
    names ([circuitstart]/[slowstart]/[predictive]); [None] otherwise.
    Backs [torsim check --strategy]. *)

type t = {
  kind : kind;
  seed : int;  (** Drives the experiment RNG (faults, path draws). *)
  relays : int;
  position : int;
      (** Bottleneck distance (faults) or crash position (recovery and
          overload), 1-based. *)
  bytes : int;  (** Transfer size. *)
  loss_ppm : int;  (** Wire loss in parts per million; 0 = none. *)
  burst : bool;  (** Gilbert–Elliott instead of Bernoulli loss. *)
  outage_ms : (int * int) option;  (** [(down, up)] offsets, ms. *)
  crash_ms : int option;
      (** Relay crash offset, ms (faults, recovery and overload). *)
  queue_cells : int;  (** Link queue capacity in packets; 0 = unbounded. *)
  strategy : strategy;
  bottleneck_kbps : int;  (** Derived from the seed; stored for replay. *)
  fast_kbps : int;
  endpoint_kbps : int;
      (** Client/server access rate.  A third of the sampled population
          gets a crawling client link — the only regime where the
          sender's own access queue congests, which is what exercises
          the pooled-pending recycling laws. *)
  max_rebuilds : int;  (** Recovery/overload only. *)
  sessions : int;  (** Overload crowd size; 1 for other kinds. *)
  oload_circuits : int;
      (** Overload: per-relay circuit budget; 0 = unlimited. *)
  oload_kib : int;
      (** Overload: per-relay queued-byte budget in KiB; 0 =
          unlimited. *)
  arrival_ms : int;
      (** Overload: mean inter-arrival gap of the crowd in ms.
          Network scenarios reuse it as the mean think time. *)
  lifet : int;
      (** Network/churn: circuit lifetimes to complete; 0 = experiment
          default.  Network and churn scenarios also reuse [sessions]
          as the slot count, [bytes] as the mouse transfer size and the
          overload budgets as the per-relay admission budget. *)
  leave_pm : int;
      (** Churn: per-relay per-second leave hazard in parts per million
          (all-int so the replay line is exact); 0 for other kinds. *)
  join_pm : int;  (** Churn: rejoin hazard, ppm per second. *)
  crashpct : int;
      (** Churn: percent of departures that crash instead of draining. *)
  grace_ms : int;  (** Churn: drain grace period. *)
  epoch_ms : int;  (** Churn: directory snapshot refresh period. *)
  spares : int;
      (** Churn: relays that start down and join under [join_pm]. *)
  shards : int;
      (** Network/churn: the shard count, one of 1, 2 or 4 (1 for
          other kinds).  The result is a function of (seed, config)
          whatever the shard count; the harness audits this with a
          shards=1-vs-4 result-digest differential. *)
}

val to_string : t -> string
(** One-line [key=value] form, the replayable "(seed, scenario)"
    reproducer. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}.  The overload fields ([sess]/[ocirc]/
    [okib]/[arr]) are optional with inert defaults, so reproducer lines
    from before they existed still parse; a missing [shards] key means
    1, and [shards] below 1 is a parse error. *)

val equal : t -> t -> bool
(** Test reference: the round-trip, determinism and shrink tests
    compare scenarios with it. *)

val gen : t QCheck2.Gen.t
(** The QCheck generator behind {!generate}.  Test hook: the string
    round-trip property draws from it. *)

val generate :
  ?only:kind -> ?strat:strategy -> seed:int -> index:int -> unit -> t
(** The [index]-th scenario of master seed [seed] — deterministic, so
    [torsim check --runs N --seed S] samples the same scenarios on
    every machine.  [only] restricts generation to one kind (the
    per-kind stream is still deterministic, but distinct from the
    unfiltered stream's subsequence of that kind).  [strat] pins the
    startup strategy by overriding the sampled one, so a pinned sweep
    visits the same worlds as the unpinned sweep with only the
    controller changed (e.g. a predictive-only nightly pass). *)

val shrink_candidates : t -> t list
(** Structurally simpler variants, simplest-first: fewer bytes, no
    loss, no outage, no crash (faults and overload), fewer relays,
    unbounded queue.  The
    harness greedily re-runs candidates to shrink a failure. *)

val fault_config : t -> Workload.Fault_experiment.config
(** Raises [Invalid_argument] unless [kind = Faults]. *)

val recovery_config : t -> Workload.Overload_experiment.config
(** {!Workload.Overload_experiment.recovery_config} with the scenario's
    topology, transfer, crash and strategy.  Raises [Invalid_argument]
    unless [kind = Recovery]. *)

val overload_config : t -> Workload.Overload_experiment.config
(** Raises [Invalid_argument] unless [kind = Overload]. *)

val network_config : t -> Workload.Network_experiment.config
(** Raises [Invalid_argument] unless [kind = Network].  Capped by a
    sim-time safety horizon so a pathological admission budget ends
    the run early (audited, with abandoned circuits) instead of
    stalling it. *)

val churn_config : t -> Workload.Network_experiment.config
(** Raises [Invalid_argument] unless [kind = Churn].  The same
    round-level experiment as {!network_config} with the churn
    schedule switched on: hazards from [leave_pm]/[join_pm], the
    crash/drain split from [crashpct], and a 100 ms hazard tick so a
    few-second scenario still lands departures. *)
