(** The discrete-event scheduler.

    A [Sim.t] owns the simulated clock and the future event list (a
    two-level timing wheel, {!Event_queue}).  All model components
    schedule closures against it; [run] drains the queue, advancing the
    clock to each event's timestamp.  There is no global state: several
    independent simulations can coexist, which the test suite uses
    extensively.

    Closures scheduled at the same instant run in scheduling order
    (see {!Event_queue}).

    Hot callers that fire the same logical clock over and over (link
    serialization, retransmission watchdogs, periodic ticks) should
    preallocate a {!Timer} once and rearm it in place instead of calling
    {!schedule_after} per occurrence: rearming allocates nothing. *)

type t

type handle = Event_queue.handle
(** Names a pending event for cancellation. *)

val create : ?capacity:int -> ?tick_bits:int -> ?wheel_slots:int -> unit -> t
(** A fresh simulation at time {!Time.zero} with an empty event list.
    [capacity] pre-sizes the future event list, and [tick_bits] and
    [wheel_slots] set the wheel's L0 tick and ring size (see
    {!Event_queue.create}): L0 spans [wheel_slots] ticks and L1 the
    next 255 L0 spans, and deadlines beyond L1 wait in an overflow
    heap.  Geometry only affects performance, never firing order.
    Every simulation in the library runs the default: 4096 ticks of
    4.1 µs, a ~16.8 ms L0 and a ~4.3 s L1. *)

val now : t -> Time.t
(** The current simulated instant. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> handle
(** [schedule_at sim time f] runs [f] when the clock reaches [time].
    Raises [Invalid_argument] if [time] is before {!now} — scheduling
    into the past is always a model bug. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> handle
(** [schedule_after sim delay f] is
    [schedule_at sim (Time.add (now sim) delay) f].  Raises
    [Invalid_argument] on a negative [delay]. *)

val schedule_now : t -> (unit -> unit) -> handle
(** [schedule_now sim f] runs [f] at the current instant, after all
    handlers already scheduled for this instant. *)

val cancel : t -> handle -> unit
(** Cancel a pending event: it leaves the event list at once (no-op if
    it already ran or was cancelled). *)

(** {1 Reusable timers}

    An intrusive, preallocated event bound to one callback.  Create it
    once, arm it as often as needed: arming an existing timer is
    allocation-free, where {!schedule_after} allocates a queue entry, a
    handle and (typically) a fresh closure per call.  A timer has at
    most one pending occurrence; arming a pending timer reschedules it,
    taking a fresh insertion sequence number exactly as cancelling and
    rescheduling would.  It is safe — and idiomatic — to rearm a timer
    from inside its own callback. *)

module Timer : sig
  type sim := t

  type t
  (** A reusable timer.  Bound to the simulation it was created on. *)

  val create : sim -> (unit -> unit) -> t
  (** [create sim f] is a fresh, unarmed timer running [f] when it
      fires.  Allocate once, at setup time. *)

  val arm_at : sim -> t -> Time.t -> unit
  (** Schedule (or reschedule) the timer for an absolute instant.
      Raises [Invalid_argument] if the instant is before {!now}.
      Test-only: the timer tests arm at exact instants with it. *)

  val arm_after : sim -> t -> Time.t -> unit
  (** [arm_after sim tm delay] is [arm_at sim tm (Time.add (now sim)
      delay)].  Raises [Invalid_argument] on a negative delay. *)

  val cancel : sim -> t -> unit
  (** Unschedule the timer.  No-op if it is not pending.  Like
      {!val:cancel} on a handle, the entry leaves the queue at once, and
      the timer can be rearmed immediately. *)

  val is_armed : t -> bool
  (** Whether the timer is currently scheduled.  Test-only: the timer
      tests observe arming with it. *)
end

val every : t -> Time.t -> (unit -> unit) -> stop:(unit -> bool) -> unit
(** [every sim period f ~stop] runs [f] each [period], starting one
    [period] from now, until [stop ()] becomes true (checked before each
    firing; a firing whose [stop] check fails consumes the event but
    runs nothing and disarms the tick).  Implemented on one reusable
    {!Timer}, so steady-state periodic ticks allocate nothing.  Raises
    [Invalid_argument] if [period] is not positive. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** [run sim] executes events in timestamp order until the queue is
    empty, the clock passes [until], [max_events] events have run, or
    {!stop} is called.  Events with timestamp exactly [until] still
    run.  When stopping because of [until], the clock is left at
    [until] (also when the queue empties before the horizon). *)

val stop : t -> unit
(** Makes the innermost running {!run} return after the current event
    handler finishes. *)

val events_executed : t -> int
(** Total number of events executed so far (cancelled events are not
    counted). *)

val pending_events : t -> int
(** Number of events still scheduled (cancelled ones are not
    counted).  Test-only: the scheduler tests observe the queue with
    it. *)

val set_fire_probe : t -> (Time.t -> unit) option -> unit
(** Install (or remove, with [None]) a passive observer called once
    per executed event, just before its handler runs, with the clock
    already advanced to the event's timestamp.  Intended for invariant
    oracles (e.g. checking that firings are never earlier than their
    deadline and that the clock is monotone).  The probe must be
    passive: it must not schedule, cancel, or otherwise perturb the
    simulation, so that an instrumented run remains schedule-identical
    to a plain one.  Costs one [match] per event when unset. *)
