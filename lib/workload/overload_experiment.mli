(** The packet-level session world: sessions over a tiered star of
    relays, under admission budgets and an optional relay crash.

    A small star of [relay_count] relays (bandwidths cycling over four
    tiers so the two {!Tor_model.Directory.selection} policies differ),
    every one carrying the same resource budget
    ({!Tor_model.Switchboard.budget}), and [sessions] independent
    clients arriving as a Poisson process (exponential inter-arrival
    times, mean [mean_interarrival]) all transferring to one server.
    Each session is a {!Tor_model.Session}: it builds a circuit, and
    when the circuit dies it excludes the suspect, draws an alternate
    path, rebuilds and resumes from the last contiguously delivered
    byte.

    Two adversities drive the rebuilds.  Budgets: CREATEs are refused
    under admission control (sessions back off and redraw without
    excluding the busy relay) and byte-budget overflows trigger the OOM
    responder (the heaviest circuit is destroyed, its session rebuilds
    elsewhere).  A crash: with [crash_at] set, the relay at path
    position [crash_position] of session 0's {e first} circuit dies
    [crash_at] after that transfer starts.  The victim is a function of
    the seed alone, so {!Experiment.compare} runs every startup
    strategy against the byte-identical schedule.

    {!default_config} is a flash crowd against tight budgets;
    {!recovery_config} is one session surviving a crash.

    Failure detection is not a config field: every hop sender uses the
    fault world's tight constants {!Fault_experiment.rto_min} (300 ms),
    {!Fault_experiment.rto_initial} (500 ms) and
    {!Fault_experiment.max_retries} (4 retransmissions per cell), so a
    crash is detected in seconds. *)

type config = {
  relay_count : int;
      (** Must exceed [hops]: refused and crashed sessions need spare
          relays to redraw from. *)
  hops : int;
  relay_base_rate : Engine.Units.Rate.t;
      (** Tier 0 bandwidth; relay [i] gets [base * (1 + i mod 4)]. *)
  access_delay : Engine.Time.t;
  endpoint_rate : Engine.Units.Rate.t;
  sessions : int;  (** Size of the crowd (one client endpoint each). *)
  mean_interarrival : Engine.Time.t;
      (** Mean of the exponential inter-arrival gaps. *)
  transfer_bytes : int;  (** Per session. *)
  strategy : Circuitstart.Controller.strategy;
  params : Circuitstart.Params.t;
  link_queue : Netsim.Nqueue.capacity;
  max_circuits : int option;
      (** Per-relay circuit-count budget; [None] = unlimited. *)
  max_queued_bytes : int option;
      (** Per-relay queued-cell-byte budget; [None] = unlimited. *)
  selection : Tor_model.Directory.selection;
  max_rebuilds : int;
      (** Per-session rebuild budget — refusals consume it too. *)
  crash_at : Engine.Time.t option;
      (** Crash offset from session 0's first transfer start; [None] =
          no crash. *)
  crash_position : int;
      (** Path position of the crash victim, 1-based (1 = guard). *)
  horizon : Engine.Time.t;
}

val default_config : config
(** A 12-session crowd (mean gap 150 ms) of 64 KiB transfers over 3 of
    4 relays, each relay budgeted at 6 circuits and 48 KiB of queued
    cells — tight enough that both refusals and OOM kills occur.  No
    crash. *)

val recovery_config : config
(** One session of 512 KiB over 3 of 8 relays (6 Mbit/s base), no
    budgets, 3 rebuilds, a 120 s horizon and crash position 2 (the
    middle relay); [crash_at] is [None], so callers set the crash. *)

val validate_config : config -> (config, string) result

type outcome =
  | Completed  (** Every byte delivered, possibly across rebuilds. *)
  | Exhausted of Tor_model.Session.reason
      (** The session gave up; terminal in bounded simulated time. *)
  | Timed_out  (** Still running at [horizon]. *)

val outcome_to_string : outcome -> string
(** ["completed"], ["exhausted:<reason>"] or ["timed-out"]. *)

type session_result = {
  outcome : outcome;
  recovery_times : Engine.Time.t list;
      (** Per successful rebuild, oldest first: failure to resumed
          start. *)
  excluded : Netsim.Node_id.t list;
      (** Relays the session ended up excluding. *)
}

type result = {
  sessions : int;
  completed : int;
  exhausted : int;  (** Sessions that gave up (budget or no path). *)
  timed_out : int;  (** Sessions still running at [horizon]. *)
  per_session : session_result list;  (** In session order. *)
  rebuilds : int;  (** Summed over sessions. *)
  refused_builds : int;
      (** Client-side build attempts that ended in a REFUSED, summed
          over sessions. *)
  admitted : int;  (** CREATEs accepted, summed over relays. *)
  refusals : int;  (** CREATEs refused, summed over relays. *)
  refusal_rate : float;
      (** [refusals / (admitted + refusals)]; 0 when no CREATE was
          processed. *)
  oom_kills : int;
      (** Circuits destroyed by relay OOM responders. *)
  overload_enters : int;
      (** Relay transitions into the overloaded state. *)
  delivered_bytes : int;
      (** Contiguous prefixes at the sinks, across generations. *)
  duplicates : int;
      (** Cells delivered twice, summed over every circuit generation —
          resume must keep this at 0. *)
  retransmissions : int;  (** Summed over every circuit generation. *)
  drops : Netsim.Link.drop_counts;  (** Summed over every link. *)
  queue_high_watermark_bytes : int;
      (** Deepest any single link queue ever got, in bytes. *)
  mean_ttlb : Engine.Time.t option;
      (** Mean session arrival→completion span, over completed
          sessions; it includes the first circuit build. *)
  max_ttlb : Engine.Time.t option;
  goodput_bps : float;
      (** Delivered bits per second from the first arrival to the last
          terminal instant, recovery dead time included. *)
  relay_byte_hwm : int;
      (** Highest queued-byte occupancy any relay ever reached —
          bounded by [max_queued_bytes] plus one in-flight charge. *)
  events : Engine.Trace.event list;
      (** Crash / abort / refused / oom-kill / overload / rebuild /
          resume / exhausted log, oldest first. *)
  wall_events : int;  (** Simulator events executed (cost metric). *)
}

val run :
  ?seed:int ->
  ?probe:(Engine.Sim.t -> Netsim.Link.t array -> Backtap.Transfer.t -> unit) ->
  ?relay_probe:(Engine.Sim.t -> Tor_model.Relay_ctl.t list -> unit) ->
  config ->
  result
(** Deterministic per [(seed, config)]: every session draws its path
    from its own split RNG, so identical seeds yield byte-identical
    results.  Raises [Invalid_argument] if the config does not
    validate.  [probe] fires once per deployed circuit generation
    (before it starts) with the simulator, every link and the new
    transfer, so invariant oracles can re-attach across rebuilds;
    [relay_probe] fires once, right after the network is finalized and
    budgets are set, with every relay's control automaton — the budget
    and teardown oracles attach through it.  Probes must be passive. *)

val run_many : ?jobs:int -> (int * config) list -> result list
(** One {!run} per replicate on a domain pool; results in task order,
    byte-identical to sequential mapping. *)

val with_strategy : Circuitstart.Controller.strategy -> config -> config
(** The config with its startup strategy replaced; with
    {!validate_config} and {!run_many} this makes the module an
    {!Experiment.S}. *)

val pp_result : Format.formatter -> result -> unit
