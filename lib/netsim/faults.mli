(** Per-link fault injection.

    Real anonymity-network paths are not clean pipes: they see random
    wire loss, bursty loss (a congested or flapping segment), whole
    link outages and capacity degradation.  This module packages those
    disturbance models and attaches them to any {!Link.t} through the
    link's fault hooks — callers of {!Link.send} are oblivious; only
    the drop counters and the transport's retransmission machinery can
    tell a faulty run from a clean one.

    Every model draws from a caller-supplied {!Engine.Rng.t}, so fault
    schedules are deterministic per seed and paired experiment runs
    ("with CircuitStart" / "without") see identical disturbances. *)

(** {1 Loss models} *)

type loss_model =
  | Bernoulli of float  (** i.i.d. loss with the given probability. *)
  | Gilbert_elliott of {
      p_good_to_bad : float;  (** Per-packet transition probability. *)
      p_bad_to_good : float;
      loss_good : float;  (** Loss probability while in the good state. *)
      loss_bad : float;  (** Loss probability while in the bad state. *)
    }
      (** The classic two-state bursty-loss channel: loss clusters in
          bad-state episodes whose mean length is [1 / p_bad_to_good]
          packets. *)

val validate_loss : loss_model -> (loss_model, string) result
(** All probabilities must lie in [\[0, 1\]]. *)

val expected_loss_rate : loss_model -> float
(** The model's long-run loss rate: the Bernoulli probability, or the
    Gilbert–Elliott loss under the chain's stationary distribution. *)

type loss_state
(** The mutable channel state of one attached model. *)

val loss_state : loss_model -> loss_state
(** A fresh state (Gilbert–Elliott starts in the good state).  Raises
    [Invalid_argument] if the model does not validate. *)

val decide : loss_state -> Engine.Rng.t -> bool
(** [decide st rng] advances the channel by one packet and returns
    [true] if that packet is lost.  Exposed so tests can exercise the
    models statistically without building a network. *)

val attach_loss : rng:Engine.Rng.t -> Link.t -> loss_model -> unit
(** Install the model as the link's fault filter (replacing any
    previous one).  Raises [Invalid_argument] if the model does not
    validate. *)

val detach_loss : Link.t -> unit

(** {1 Outages and degradation} *)

val schedule_outage :
  ?trace:Engine.Trace.t ->
  Engine.Sim.t ->
  Link.t ->
  down_at:Engine.Time.t ->
  up_at:Engine.Time.t ->
  unit
(** Take the link down at [down_at] and bring it back at [up_at] (see
    {!Link.set_up} for the down semantics).  With [trace], the
    transitions are recorded as {!Engine.Trace.Fault} and
    {!Engine.Trace.Recovery} events.  Raises [Invalid_argument] if
    [up_at <= down_at]. *)

val schedule_rates :
  Engine.Sim.t -> Link.t -> (Engine.Time.t * Engine.Units.Rate.t) list -> unit
(** Rate-degradation schedule: at each instant, the link's rate is
    changed to the given value (packets already serializing are
    unaffected, as with {!Link.set_rate}). *)
