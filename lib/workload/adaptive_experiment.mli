(** The paper's §3 future work: reacting to capacity changes.

    A single circuit ramps up on the {!Line_world} (3 relays, a
    3 Mbit/s bottleneck at distance 2, 50 Mbit/s elsewhere, 10 ms
    access delay, 100 Mbit/s endpoints) during an 8 MiB CircuitStart
    transfer.  2 s after the transfer starts, the bottleneck's access
    link steps to [stepped_rate] in both directions.  The base
    algorithm only grows by one cell per RTT afterwards; with
    {!Circuitstart.Params.t.adaptive} set, consecutive calm rounds
    re-enter ramp-up and the window doubles towards the new optimum.
    The result records how long the source took to reach 70 % of the
    new optimal window after the step.  The run ends at a 20 s
    horizon. *)

type config = {
  adaptive : bool;  (** Enable the re-probe (with [re_probe_after = 3]). *)
  stepped_rate : Engine.Units.Rate.t;  (** Bottleneck rate after the step. *)
}

val default_config : config
(** Adaptive, stepping 3 → 12 Mbit/s. *)

type result = {
  optimal_before_cells : int;
  optimal_after_cells : int;
  cwnd_at_step : float;  (** Source window when the step happened. *)
  reaction_time : Engine.Time.t option;
      (** Step → source window first reaches 70 % of [optimal_after];
          [None] if never. *)
  final_cwnd : float;  (** Source window at the horizon. *)
  source_cwnd : (Engine.Time.t * float) array;
      (** Full source trace, time since transfer start. *)
  wall_events : int;  (** Simulator events executed (cost metric). *)
}

val run : config -> result
(** Nothing in the run is random: equal configs give equal results. *)

val run_many : ?jobs:int -> config list -> result list
(** One {!run} per config on a domain pool of [jobs] workers
    ({!Engine.Pool.default_jobs} when omitted), results in config
    order; see DESIGN.md, "Determinism". *)
