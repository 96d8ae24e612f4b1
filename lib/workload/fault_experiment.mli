(** Transfers under injected faults: lossy links, outages, relay churn.

    The clean-network experiments answer "how fast does CircuitStart
    converge?"; this one answers "does the circuit survive, and at what
    cost, when the network misbehaves?".  It runs one transfer on the
    {!Line_world} (client, [relay_count] relays with one bottleneck,
    server) and disturbs the bottleneck relay — the worst place
    for the circuit — in up to three ways:

    - a {!Netsim.Faults.loss_model} on both directions of its access
      link (random or bursty wire loss);
    - a scheduled outage window on that link;
    - a full relay {e crash} ({!Tor_model.Relay_ctl.crash}) that
      black-holes the circuit mid-transfer.

    Faults are armed when the transfer starts (circuit establishment
    has no retransmission machinery), and [outage] / [crash_at] are
    offsets from that instant.  The run ends when the transfer
    completes, when the circuit {e fails} (a hop sender exhausts its
    retransmission budget), or at [horizon], whichever is first. *)

type config = {
  relay_count : int;
  bottleneck_distance : int;  (** Hops from the client, 1-based. *)
  bottleneck_rate : Engine.Units.Rate.t;
  fast_rate : Engine.Units.Rate.t;
  access_delay : Engine.Time.t;
  endpoint_rate : Engine.Units.Rate.t;
  transfer_bytes : int;
  strategy : Circuitstart.Controller.strategy;
  params : Circuitstart.Params.t;
  link_queue : Netsim.Nqueue.capacity;
  loss : Netsim.Faults.loss_model option;
      (** Attached to both directions of the bottleneck access link. *)
  outage : (Engine.Time.t * Engine.Time.t) option;
      (** [(down, up)] offsets from transfer start, [0 <= down < up]. *)
  crash_at : Engine.Time.t option;
      (** Crash the bottleneck relay this long after transfer start (not
          negative). *)
  horizon : Engine.Time.t;
}

val default_config : config
(** 512 KiB over 3 relays, 3 Mbit bottleneck at the middle hop, no
    faults.  Every run uses the tight failure detection below. *)

(** {1 Failure detection}

    Every hop sender of this world and of {!Overload_experiment}'s uses
    these, so crash runs terminate in seconds, not minutes, while a
    fault-free run retransmits nothing: every retransmission in a
    faulty run is attributable to the fault. *)

val rto_min : Engine.Time.t
(** 300 ms. *)

val rto_initial : Engine.Time.t
(** 500 ms. *)

val max_retries : int
(** 4 retransmissions per cell. *)

val validate_config : config -> (config, string) result

type outcome =
  | Completed
  | Failed_circuit  (** A hop sender tripped; see [failed_after]. *)
  | Timed_out  (** Still running at [horizon] — a liveness bug. *)

val outcome_to_string : outcome -> string

type result = {
  outcome : outcome;
  time_to_last_byte : Engine.Time.t option;  (** [Completed] only. *)
  failed_after : Engine.Time.t option;
      (** Failure instant minus transfer start ([Failed_circuit] only).
          Bounds how long a dead relay stalled the circuit. *)
  failed_hop : int option;  (** Path position that tripped. *)
  goodput_bps : float;
      (** Bits delivered to the sink per second of transfer time (up to
          completion or failure). *)
  received_bytes : int;
  retransmissions : int;
  drops : Netsim.Link.drop_counts;  (** Summed over every link. *)
  queue_high_watermark_bytes : int;
      (** Deepest any single link queue ever got, in bytes — the
          congestion footprint the startup strategy left on the
          network. *)
  blackholed_cells : int;
      (** Cells that arrived at the bottleneck relay after it crashed. *)
  circuit_established_in : Engine.Time.t;
  transfer_started_at : Engine.Time.t;
  events : Engine.Trace.event list;
      (** Fault / recovery / abort log, oldest first. *)
  wall_events : int;  (** Simulator events executed (cost metric). *)
}

val run :
  ?seed:int ->
  ?probe:(Engine.Sim.t -> Netsim.Link.t array -> Backtap.Transfer.t -> unit) ->
  config ->
  result
(** A function of [(seed, config)] (DESIGN.md, "Determinism").
    Raises [Invalid_argument] if the config does not validate,
    [Failure] if circuit establishment fails.

    [probe], when given, is called once — after the transfer is
    deployed, before its first cell moves — with the simulator, every
    link of the topology and the transfer, so invariant oracles
    ({!Check.Oracle}) can attach.  Probes must be passive (observe
    only): an instrumented run is then schedule-identical to a plain
    one, which the differential harness checks. *)

val run_many : ?jobs:int -> (int * config) list -> result list
(** One {!run} per [(seed, config)] task on a domain pool of [jobs]
    workers ({!Engine.Pool.default_jobs} when omitted), results in task
    order; see DESIGN.md, "Determinism". *)

val with_strategy : Circuitstart.Controller.strategy -> config -> config
(** The config with its startup strategy replaced; with
    {!validate_config} and {!run_many} this makes the module an
    {!Experiment.S}. *)
