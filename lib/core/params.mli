(** CircuitStart / congestion-avoidance parameters.

    All window quantities are counted in cells (the transport's unit of
    transmission); the Vegas-style thresholds [alpha], [beta] and
    [gamma] are likewise in cells, because
    [diff = cwnd * currentRtt / baseRtt - cwnd] estimates a queue length
    in cells.  Defaults are the paper's values where it gives one
    (initial cwnd 2, gamma 4) and the classic Vegas values elsewhere
    (alpha 2, beta 4). *)

type compensation =
  | Rate_based
      (** Overshooting compensation counts the feedback messages that
          arrived within the last baseRtt — "the amount of data
          acknowledged within the current round", reading a round as
          one RTT.  This measures the successor's sustained forwarding
          rate x baseRtt, i.e. the train prefix it forwarded without
          additional delay, which is the paper's estimate of the
          optimal window.  Default. *)
  | Acked_count
      (** Literal per-round counter: the number of feedbacks since the
          last window doubling.  Systematically undershoots when the
          Vegas test fires early in a round (the growth transient of
          the previous round leaks into the new round's samples);
          kept as an ablation. *)

type t = {
  initial_cwnd : int;  (** Starting window, cells.  Paper: 2. *)
  min_cwnd : int;  (** Lower clamp for every adjustment.  Default 2. *)
  max_cwnd : int;  (** Upper clamp.  Default 65536. *)
  gamma : float;
      (** Ramp-up exit threshold: leave slow start when
          [diff > gamma].  Paper: 4. *)
  alpha : float;  (** Avoidance: grow while [diff < alpha].  Default 2. *)
  beta : float;  (** Avoidance: shrink when [diff > beta].  Default 4. *)
  compensation : compensation;
      (** How the window is recomputed when leaving ramp-up. *)
  adaptive : bool;
      (** The paper's §3 future-work extension: re-enter ramp-up
          (doubling from the current window) after [re_probe_after]
          consecutive calm, window-limited avoidance rounds
          (diff < alpha while growth is possible).  Off by default —
          it reacts quickly to capacity changes on a single hop (see
          the adaptive bench), but in a deep cascade of hops it can
          re-synchronise probes into a sawtooth; the experiments
          record both behaviours. *)
  re_probe_after : int;
      (** Calm-round threshold for the adaptive re-probe.  Default 8. *)
  horizon : int;
      (** Predictive strategy: receding-horizon length H — the planner
          evaluates H future rounds and commits only the first step.
          [horizon = 1] cannot plan a trajectory and degenerates to
          plain Vegas avoidance (see {!Controller}).  Default 8. *)
  cost_queue : float;
      (** Predictive strategy: per-round quadratic penalty weight on
          planned cells *above* the modelled target window (standing
          queue delay).  Default 1. *)
  cost_under : float;
      (** Predictive strategy: per-round quadratic penalty weight on
          planned cells *below* the target (underutilized capacity).
          The default 4:1 ratio against [cost_queue] makes the planner
          prefer a transient queue over an idle bottleneck during
          startup, mirroring the paper's aggressive-ramp intent. *)
}

val default : t

val validate : t -> (t, string) result
(** Check internal consistency (positive windows,
    [min_cwnd <= initial_cwnd <= max_cwnd], [0 <= alpha <= beta],
    [gamma > 0], [re_probe_after > 0], [horizon > 0], positive finite
    cost weights). *)

val with_gamma : t -> float -> t
(** [with_gamma p g] is [p] with [gamma = g]. *)
