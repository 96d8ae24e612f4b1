(** The per-hop congestion window controller.

    This is the paper's contribution, §2.  One controller instance
    governs one hop sender (a relay's window toward its successor).
    The transport calls {!on_feedback} once per feedback message — each
    feedback means "the successor forwarded one cell" and carries the
    measured cell→feedback round-trip time.  The controller maintains
    the congestion window in cells.

    Three startup strategies are provided:

    - {!strategy.Circuit_start} — the paper's algorithm.  The window
      doubles in discrete rounds: one round = one full window of
      feedback, so the window doubles once per RTT.  Transmission stays
      feedback-clocked within the round (see {!send_allowance}): the
      round's packet train leaves at twice the pace of the incoming
      feedback instead of as a line-rate burst, which is what makes the
      train's timing analysable.  On every feedback the Vegas estimate
      [diff = cwnd * currentRtt / baseRtt - cwnd] is evaluated against
      [gamma]; exceeding it ends ramp-up with *overshooting
      compensation*: the cwnd is set to the number of cells
      acknowledged within the current round so far — the train prefix
      the successor forwarded without queueing, an estimate of the
      optimal window.
    - {!strategy.Slow_start} — the conventional baseline ("without
      CircuitStart"): cwnd += 1 per feedback (continuous doubling per
      RTT), same [gamma] exit test, and the cwnd is *halved* on exit.
    - {!strategy.Fixed} — a constant window (oracle/ablation baseline).
    - {!strategy.Predictive} — a simplified receding-horizon planner
      after the authors' follow-up work (Döpmann et al. 2022).  Once
      per window-limited round it fits a link model from its own
      observations (baseRtt and W*, the sustained 1-RTT feedback-rate
      peak) and plans the next {!Params.t.horizon} rounds' windows by
      greedily minimizing a quadratic queue-delay vs. underutilization
      cost ({!Params.t.cost_queue} / {!Params.t.cost_under}) over the
      discrete moves [{halve, -1, hold, +1, double}], committing only
      the plan's first step and replanning every round.  Ramp-up
      targets 2·W* (capacity is only lower-bounded until a queue is
      seen, so doubling re-emerges while the path opens); the
      CircuitStart persistence test then identifies capacity and the
      planner walks the window to W*.  Avoidance keeps replanning,
      which can shrink a deep overshoot faster than Vegas's one cell
      per round.  If the model is ever unidentifiable at a planning
      instant (fewer than two samples in the round, zero RTT variance,
      no rate estimate) — or if [horizon = 1] leaves nothing to plan —
      the controller *permanently* falls back to plain Vegas
      avoidance ({!fallen_back}).

    After ramp-up every strategy performs Vegas-like congestion
    avoidance, adjusting once per round using the round's mean RTT:
    [diff < alpha] grows by one cell, [diff > beta] shrinks by one.
    Rounds in which the sender never filled its window (application- or
    upstream-limited) do not grow the window — growing an unused window
    would only store up a future burst.  With {!Params.t.adaptive}
    set, [re_probe_after] consecutive calm window-limited rounds
    re-enter ramp-up (the paper's future-work extension). *)

type strategy =
  | Circuit_start
  | Slow_start
  | Fixed of int  (** Constant window of this many cells. *)
  | Predictive  (** Receding-horizon planner; see above. *)

type phase = Ramp_up | Avoidance

type t

val create : ?params:Params.t -> strategy -> t
(** Raises [Invalid_argument] if the parameters fail
    {!Params.validate}, or if [Fixed n] has [n < 1]. *)

val strategy : t -> strategy
val params : t -> Params.t

val cwnd : t -> int
(** Current congestion window, cells. *)

val send_allowance : t -> int
(** How many cells may be in flight right now, [<= cwnd].  During a
    [Circuit_start] or [Predictive] ramp-up round this grows from the
    previous window's worth by two cells per feedback until it reaches
    the committed [cwnd]; in every other phase/strategy it equals
    [cwnd].  Senders must gate on this, not on [cwnd]. *)

val phase : t -> phase

val on_feedback :
  t -> now:Engine.Time.t -> rtt:Engine.Time.t -> ?window_limited:bool -> unit -> unit
(** Account one feedback message whose cell experienced [rtt].
    [window_limited] (default [true]) says whether the sender was
    actually constrained by the window around this feedback; rounds
    that were never window-limited do not grow.  [now] must not
    decrease from one call to the next.  Raises [Invalid_argument] if
    [rtt] is not positive.  Once the sliding feedback window has grown
    to its peak (its span is three baseRtts), a call allocates
    nothing. *)

val base_rtt : t -> Engine.Time.t option
(** Minimum RTT observed so far. *)

val latest_diff : t -> float option
(** The Vegas [diff] (cells) computed at the most recent feedback. *)

val rtt_feedbacks : t -> int
(** Feedbacks that arrived within one baseRtt of the most recent
    feedback: the 1-RTT count behind rate-based compensation and the
    predictive model's W*. *)

val sliding_rate_cells : t -> int
(** The burst-proof feedback rate: feedbacks within three baseRtts of
    the most recent feedback, divided by three and rounded.  The
    window slides with the clock, so [on_feedback]'s [now] must never
    decrease (simulated time does not). *)

val rounds_completed : t -> int
(** Number of completed rounds (ramp-up and avoidance). *)

val ramp_up_exits : t -> int
(** How many times ramp-up was left (> 1 only with [adaptive]). *)

val exit_cwnd : t -> int option
(** The window chosen at the first ramp-up exit (the compensated value
    for [Circuit_start], the halved value for [Slow_start]). *)

val acked_in_round : t -> int
(** Feedbacks accounted in the current round so far. *)

val planned_trajectory : t -> int array
(** Snapshot of the current receding-horizon plan ([horizon] windows,
    the head being the committed step).  Empty unless the strategy is
    [Predictive].  Before the first planning instant it holds the
    initial window. *)

val plan_generation : t -> int
(** Bumped once per replan, *before* the commit fires the change
    hooks: a hook observing a [Predictive] window change must see a
    generation strictly greater than at the previous change, and the
    new window must equal [planned_trajectory.(0)] — the plan-bounds
    law the {!Check} oracles pin. *)

val fallen_back : t -> bool
(** Whether the [Predictive] controller has permanently degenerated to
    plain Vegas avoidance (unidentifiable model, or [horizon = 1]).
    Always [false] for other strategies. *)

val predictive_plan : params:Params.t -> cwnd:int -> target:int -> int array
(** The pure planner behind [Predictive], exposed for the reference-
    model property tests: the greedy minimum-cost [horizon]-step
    trajectory from [cwnd] toward [target] over the discrete moves
    [{halve, -1, hold, +1, double}], each step clamped to
    [min_cwnd..max_cwnd], ties broken toward the smaller window. *)

val unsafe_disable_plan_bounds : bool ref
(** Test hook: commit the *last* planned step instead of the first,
    breaking the receding-horizon discipline so the plan-bounds oracle
    can prove it notices.  Never set this outside the test suite. *)

val set_on_change : t -> (now:Engine.Time.t -> int -> unit) -> unit
(** Register a hook invoked with the new window on every subsequent
    change (for cwnd traces and invariant oracles).  Hooks accumulate
    and fire in registration order; the caller records the starting
    point itself. *)

val set_debug_label : t -> string -> unit
(** Label used by the [CIRCUITSTART_DEBUG] diagnostic output. *)

val pp_phase : Format.formatter -> phase -> unit
