(** Flash crowd against budgeted relays: overload protection end to
    end.

    A small star of [relay_count] relays, every one carrying the same
    resource budget ({!Tor_model.Switchboard.budget}), and [sessions]
    independent clients arriving as a Poisson process (exponential
    inter-arrival times, mean [mean_interarrival]) all transferring to
    one server.  The crowd drives the relays over budget, exercising
    the full protection stack: CREATEs are refused under admission
    control (sessions back off and redraw without excluding the busy
    relay), byte-budget overflows trigger the OOM responder (the
    heaviest circuit is destroyed, its session rebuilds elsewhere), and
    the result reports the build-refusal rate, OOM kills, per-session
    time-to-last-byte and aggregate goodput.

    {!Experiment.compare} pairs CircuitStart against slow start on the
    identical arrival schedule and path draws: the aggressive ramp
    queues more bytes at the relays sooner, so the comparison shows
    what the startup strategy costs (or saves) under contention. *)

type config = {
  relay_count : int;
      (** Must exceed [hops]: refused sessions need spare relays to
          redraw from. *)
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
  rto_min : Engine.Time.t;
  rto_initial : Engine.Time.t;
  max_retries : int;
  horizon : Engine.Time.t;
}

val default_config : config
(** A 12-session crowd (mean gap 150 ms) of 64 KiB transfers over 3 of
    4 relays, each relay budgeted at 6 circuits and 48 KiB of queued
    cells — tight enough that both refusals and OOM kills occur. *)

val validate_config : config -> (config, string) result

type result = {
  sessions : int;
  completed : int;
  exhausted : int;  (** Sessions that gave up (budget or no path). *)
  timed_out : int;  (** Sessions still running at [horizon]. *)
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
  mean_ttlb : Engine.Time.t option;
      (** Mean session arrival→completion span, over completed
          sessions. *)
  max_ttlb : Engine.Time.t option;
  goodput_bps : float;
      (** Delivered bits per second from the first arrival to the last
          terminal instant. *)
  relay_byte_hwm : int;
      (** Highest queued-byte occupancy any relay ever reached —
          bounded by [max_queued_bytes] plus one in-flight charge. *)
  events : Engine.Trace.event list;
      (** Refused / oom-kill / overload / rebuild / resume log. *)
  wall_events : int;
}

val run :
  ?seed:int ->
  ?probe:(Engine.Sim.t -> Netsim.Link.t list -> Backtap.Transfer.t -> unit) ->
  ?relay_probe:(Engine.Sim.t -> Tor_model.Relay_ctl.t list -> unit) ->
  config ->
  result
(** Deterministic per [(seed, config)].  Raises [Invalid_argument] if
    the config does not validate.  [probe] fires once per deployed
    circuit generation (before it starts), as in
    {!Recovery_experiment.run}; [relay_probe] fires once, right after
    the network is finalized and budgets are set, with every budgeted
    relay's control automaton — the budget and teardown oracles attach
    through it.  Probes must be passive. *)

val run_many : ?jobs:int -> (int * config) list -> result list
(** One {!run} per replicate on a domain pool; results in task order,
    byte-identical to sequential mapping. *)

val with_strategy : Circuitstart.Controller.strategy -> config -> config
(** The config with its startup strategy replaced; with
    {!validate_config} and {!run_many} this makes the module an
    {!Experiment.S}. *)

val pp_result : Format.formatter -> result -> unit
