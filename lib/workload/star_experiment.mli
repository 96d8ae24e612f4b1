(** Figure 1 (bottom panel): concurrent circuits over a random star.

    A random relay population is generated, [circuit_count] circuits
    are selected bandwidth-weighted from it (each with its own client
    and server leaf), all circuits are established through the control
    plane, and each then transfers a fixed amount of data under the
    chosen transport.  The time-to-last-byte samples feed the CDF.

    The generator is seeded: running the same config with a different
    [strategy] (or [transport = Legacy_sendme]) reuses the identical
    network, circuits and start times — paired comparison, as the
    paper's "with/without CircuitStart" curves require.

    The start stagger is a constant, not a config field: each transfer
    starts uniformly within 200 ms ([start_stagger]) after its circuit
    is up, which desynchronises the 50 slow starts.  Circuits are not
    torn down after their transfers. *)

type transport =
  | Backtap of Circuitstart.Controller.strategy
      (** Hop-by-hop BackTap with the given startup scheme. *)
  | Legacy_sendme  (** Vanilla Tor end-to-end SENDME windows. *)

type config = {
  relay_count : int;
  circuit_count : int;  (** Paper: 50. *)
  relays_per_circuit : int;  (** Paper: 3. *)
  transfer_bytes : int;
  transport : transport;
  params : Circuitstart.Params.t;  (** Used by BackTap transports. *)
  relay_config : Relay_gen.config;
  endpoint_rate : Engine.Units.Rate.t;
  endpoint_delay : Engine.Time.t;
  horizon : Engine.Time.t;
  seed : int;
}

val default_config : config
(** 30 relays, 50 circuits of 3 relays, 500 KiB transfers, BackTap +
    CircuitStart, default relay population, 100 Mbit/s / 10 ms
    endpoints, 60 s horizon, seed 1. *)

val validate_config : config -> (config, string) result

type circuit_outcome = {
  circuit_index : int;
  ttlb : Engine.Time.t option;  (** [None] if unfinished at horizon. *)
  bottleneck_rate : Engine.Units.Rate.t;  (** Of its path. *)
  optimal_source_cells : int;
  received_bytes : int;  (** Delivered to the sink by the horizon. *)
  retransmissions : int;  (** Hop-level retransmissions (BackTap). *)
}

type result = {
  outcomes : circuit_outcome list;
  completed : int;
  total : int;
  ttlb_seconds : float array;  (** Completed transfers only. *)
  wall_events : int;  (** Simulator events executed (cost metric). *)
  max_link_queue_bytes : int;
      (** Largest link-queue occupancy seen anywhere — the bufferbloat
          a transport inflicts on the relays. *)
  mean_link_queue_hwm_bytes : float;
      (** Mean per-link high watermark. *)
  cell_latency : Engine.Stats.Online.t;
      (** Per-cell end-to-end latency, merged over all circuits — the
          interactivity cost each transport imposes. *)
}

val run : config -> result
(** Raises [Invalid_argument] on an invalid config, [Failure] if the
    directory cannot satisfy path selection.  [run] is a pure function
    of its config (own simulator, own RNG, no shared mutable state), so
    independent configs may run on separate domains. *)

val run_many : ?jobs:int -> config list -> result list
(** One {!run} per config on a domain pool of [jobs] workers
    ({!Engine.Pool.default_jobs} when omitted).  Results are in config
    order and byte-identical to mapping {!run} sequentially. *)
