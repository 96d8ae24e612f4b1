(** Paired recovery runs: a crash mid-transfer, a {!Tor_model.Session}
    routing around it.

    Where {!Fault_experiment} measures how a {e single} circuit dies,
    this experiment measures how a session {e survives}: a star of
    [relay_count] relays (bandwidths cycling over four tiers so the
    two {!Tor_model.Directory.selection} policies differ), one logical
    transfer driven by a {!Tor_model.Session}, and optionally one relay
    crash at a fixed offset from transfer start.  The session excludes
    the suspect, draws an alternate path, rebuilds, and resumes from
    the last contiguously delivered byte; the result records completion
    time, recovery latency, retry counts and the goodput achieved.

    The crash victim is whatever relay the session drew at path
    position [crash_position] of its {e first} circuit, so the crash
    schedule is a function of the seed alone — {!Experiment.compare}
    runs every startup strategy against the byte-identical schedule. *)

type config = {
  relay_count : int;
      (** Must exceed [hops]: recovery needs spare relays. *)
  hops : int;
  relay_base_rate : Engine.Units.Rate.t;
      (** Tier 0 bandwidth; relay [i] gets [base * (1 + i mod 4)]. *)
  access_delay : Engine.Time.t;
  endpoint_rate : Engine.Units.Rate.t;
  transfer_bytes : int;
  strategy : Circuitstart.Controller.strategy;
  params : Circuitstart.Params.t;
  link_queue : Netsim.Nqueue.capacity;
  crash_at : Engine.Time.t option;
      (** Crash offset from first transfer start; [None] = no crash. *)
  crash_position : int;
      (** Path position of the victim, 1-based (1 = guard). *)
  selection : Tor_model.Directory.selection;
  max_rebuilds : int;
  rto_min : Engine.Time.t;
  rto_initial : Engine.Time.t;
  max_retries : int;  (** Per-cell retransmission budget. *)
  horizon : Engine.Time.t;
}

val default_config : config
(** 512 KiB over 3 of 8 relays, bandwidth-weighted selection, budget of
    3 rebuilds, no crash; failure detection tight enough ([rto_min]
    300 ms, [max_retries] 4) that a crash is detected in seconds. *)

val validate_config : config -> (config, string) result

type outcome =
  | Completed  (** Every byte delivered, possibly across rebuilds. *)
  | Exhausted of Tor_model.Session.reason
      (** The session gave up; terminal in bounded simulated time. *)
  | Timed_out  (** Still running at [horizon] — a liveness bug. *)

val outcome_to_string : outcome -> string
(** ["completed"], ["exhausted:<reason>"] or ["timed-out"]. *)

type result = {
  outcome : outcome;
  time_to_last_byte : Engine.Time.t option;
      (** First transfer start to session completion, spanning every
          rebuild and backoff ([Completed] only). *)
  rebuilds : int;
  generations : int;  (** Circuits actually deployed. *)
  recovery_times : Engine.Time.t list;
      (** Per successful rebuild, oldest first: failure to resumed
          start. *)
  time_to_recover : Engine.Time.t option;
      (** First entry of [recovery_times]. *)
  delivered_bytes : int;
      (** Contiguous prefix at the sink, across generations. *)
  duplicates : int;
      (** Cells delivered twice, summed over generations — resume must
          keep this at 0. *)
  retransmissions : int;  (** Summed over generations. *)
  drops : Netsim.Link.drop_counts;  (** Summed over every link. *)
  queue_high_watermark_bytes : int;
      (** Deepest any single link queue ever got, in bytes. *)
  goodput_bps : float;
      (** Delivered bits per second of session time (start to terminal
          instant), i.e. including recovery dead time. *)
  excluded : Netsim.Node_id.t list;
      (** Relays the session ended up excluding. *)
  events : Engine.Trace.event list;
      (** Fault / rebuild / resume / exhausted log, oldest first. *)
  wall_events : int;  (** Simulator events executed (cost metric). *)
}

val run :
  ?seed:int ->
  ?probe:(Engine.Sim.t -> Netsim.Link.t list -> Backtap.Transfer.t -> unit) ->
  config ->
  result
(** Deterministic per [(seed, config)]: identical seeds yield
    byte-identical results.  Raises [Invalid_argument] if the config
    does not validate.  Each run owns its simulator and RNG, so
    independent replicates are domain-safe.

    [probe] is called once per circuit generation — after that
    generation's transfer is deployed, before it starts — with the
    simulator, every link and the new transfer, so invariant oracles
    can re-attach across rebuilds.  Probes must be passive (observe
    only). *)

val run_many : ?jobs:int -> (int * config) list -> result list
(** One {!run} per [(seed, config)] replicate on a domain pool of
    [jobs] workers ({!Engine.Pool.default_jobs} when omitted).
    Results are in task order and byte-identical to mapping {!run}
    sequentially. *)

val with_strategy : Circuitstart.Controller.strategy -> config -> config
(** The config with its startup strategy replaced; with
    {!validate_config} and {!run_many} this makes the module an
    {!Experiment.S}. *)

val pp_result : Format.formatter -> result -> unit
