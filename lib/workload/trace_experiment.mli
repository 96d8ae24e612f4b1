(** Figure 1 (upper panels): single-circuit cwnd traces.

    One circuit of [relay_count] relays on the {!Line_world}; every
    access link is fast except the designated bottleneck relay's.  The
    circuit is established through the control plane, then a fixed
    transfer runs under the chosen startup strategy while every hop's
    congestion window is traced.  The result carries the source trace (re-based to
    the transfer start, as in the paper's time axis), the analytic
    optimum, and shape statistics (peak = overshoot, settled value,
    exit value). *)

type config = {
  relay_count : int;  (** Relays on the path (paper: 3). *)
  bottleneck_distance : int;
      (** Which relay is slow, 1-based hops from the source (paper
          panels: 1 and 3). *)
  bottleneck_rate : Engine.Units.Rate.t;
  fast_rate : Engine.Units.Rate.t;  (** All other relays. *)
  access_delay : Engine.Time.t;  (** Every leaf's one-way delay. *)
  endpoint_rate : Engine.Units.Rate.t;  (** Client and server links. *)
  transfer_bytes : int;
  strategy : Circuitstart.Controller.strategy;
  params : Circuitstart.Params.t;
  link_queue : Netsim.Nqueue.capacity;
      (** Per-link queue capacity; bounded capacities introduce loss
          that the hop reliability must recover (default unbounded —
          congestion then shows as delay, which is what delay-based
          control observes). *)
  horizon : Engine.Time.t;  (** Simulated time budget. *)
}

val default_config : config
(** 3 relays, bottleneck at distance 1, 3 vs 50 Mbit/s, 10 ms access
    delay, 100 Mbit/s endpoints, 1 MiB transfer, CircuitStart with
    default parameters, 10 s horizon. *)

val validate_config : config -> (config, string) result

type result = {
  source_cwnd : (Engine.Time.t * float) array;
      (** Source hop's window (cells) over time since transfer start. *)
  hop_cwnds : (Engine.Time.t * float) array list;
      (** Every hop's trace, client first, same time base. *)
  optimal_source_cells : int;  (** The dashed line, from {!Optmodel}. *)
  propagated_cells : int;  (** [min_i W*_i] (backpropagation target). *)
  peak_cells : float;  (** Largest source window — the overshoot. *)
  settled_cells : float;  (** Source window at the horizon (or finish). *)
  exit_cells : int option;  (** Window chosen when ramp-up ended. *)
  time_to_last_byte : Engine.Time.t option;
  transfer_started_at : Engine.Time.t;  (** Absolute simulation time. *)
  circuit_established_in : Engine.Time.t;
  retransmissions : int;
  wall_events : int;  (** Simulator events executed (cost metric). *)
}

val run : config -> result
(** Raises [Invalid_argument] on an invalid config, [Failure] if the
    circuit cannot be established.  Nothing in the run is random: equal
    configs give equal results, and independent runs are domain-safe. *)

val run_many : ?jobs:int -> config list -> result list
(** One {!run} per config on a domain pool of [jobs] workers
    ({!Engine.Pool.default_jobs} when omitted).  Results are in config
    order and byte-identical to mapping {!run} sequentially. *)
