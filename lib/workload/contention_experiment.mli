(** Sharing the bottleneck with unresponsive background traffic.

    The paper motivates tailored transports with the wish that Tor
    traffic "behave much like background traffic", i.e. not fight other
    users of a relay aggressively.  Here a single CircuitStart circuit
    on the {!Line_world} (3 relays, a 4 Mbit/s bottleneck at distance
    2, 50 Mbit/s elsewhere, 10 ms access delay, 100 Mbit/s endpoints,
    a 30 s horizon) shares the bottleneck relay's uplink with a CBR
    flow, sent to an extra [cbr-sink] leaf, that consumes a
    configurable fraction of its capacity: a delay-based scheme should
    settle onto roughly the *residual* capacity, with a window near
    [(1 - load) * W*]. *)

type config = {
  cbr_load : float;  (** Fraction of the bottleneck rate, in [0, 0.9]. *)
  transfer_bytes : int;
}

val default_config : config
(** 25 % CBR load, 4 MiB transfer. *)

val validate_config : config -> (config, string) result

type result = {
  optimal_cells : int;  (** W* of the unloaded path. *)
  expected_cells : float;  (** [(1 - load) * W*], the fair target. *)
  settled_cells : float;
  time_to_last_byte : Engine.Time.t option;
  cbr_packets : int;  (** Background packets emitted. *)
  goodput_share : float option;
      (** Circuit goodput / bottleneck capacity; with load ρ the fair
          share is ≈ 1 - ρ. *)
  wall_events : int;  (** Simulator events executed (cost metric). *)
}

val run : config -> result
(** Raises [Invalid_argument] on an invalid config.  Nothing in the run
    is random: equal configs give equal results. *)

val run_many : ?jobs:int -> config list -> result list
(** One {!run} per config on a domain pool of [jobs] workers
    ({!Engine.Pool.default_jobs} when omitted), results in config
    order; see DESIGN.md, "Determinism". *)
