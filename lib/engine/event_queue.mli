(** The simulator's future event list.

    A two-level timing wheel over an int slab, with an overflow heap
    behind it (Varghese & Lauck, "Hashed and Hierarchical Timing
    Wheels", SOSP 1987).  L0 is a ring of [wheel_slots] ticks of
    [2^tick_bits] ns (by default 4096 ticks of 4.1 µs, ~16.8 ms); each
    tick is an intrusive list and an occupancy bitmap finds the next
    occupied one.  L1 holds the next 255 L0 revolutions (~4.3 s by
    default), one list per revolution, and moves a revolution into L0
    when the cursor enters it.  Deadlines past L1 wait in an overflow
    heap and move into the wheel as the cursor approaches.  Every queued
    event owns one slot of a slab of ints, and the containers hold slot
    ids, so scheduling, firing and cancelling move ints and pay no write
    barrier.

    Firing order is exactly (time, insertion sequence number): the
    entries of a drained tick pass through a small heap ordered by
    (time, seq), for every geometry.  Two events scheduled for the same
    instant fire in the order they were scheduled.  That stability
    matters — a relay that enqueues a cell and then arms a timer for the
    same instant relies on the cell handler running first — and it is
    what makes whole simulations deterministic.

    Cancellation is eager: cancelling a {!handle}, like disarming a
    {!timer}, takes the event out of its container at once (O(1) in the
    wheel, O(log n) in a heap) and gives its slot back.  Nothing dead is
    ever stored, so the payload of a cancelled, popped or cleared event
    is never pinned by the queue.  {!pop}, {!pop_before} and
    {!peek_time} may advance the internal cursor to the earliest event's
    tick (moving entries between levels on the way), but never change
    the set of queued events: observably, [peek_time] is pure. *)

type 'a t
(** A queue of events carrying payloads of type ['a]. *)

type handle
(** Names a scheduled event so it can be cancelled. *)

val create : ?capacity:int -> ?tick_bits:int -> ?wheel_slots:int -> unit -> 'a t
(** A fresh, empty queue.  [capacity] pre-sizes the slab (default 32
    events queued at once; it doubles as it fills), so a caller that
    knows its steady-state event population can skip the growth
    doublings; it is a hint, not a bound.

    [tick_bits] (default 12: 4.096 µs ticks) and [wheel_slots] (default
    4096, must be a power of two) set the geometry: L0 covers
    [wheel_slots] ticks of [2^tick_bits] ns, and L1 the next 255 such
    revolutions.  Inserting into either level, and removing from it, is
    O(1); deadlines beyond L1 take the overflow heap at O(log n).
    Geometry is purely a performance knob — the firing order is exact
    (time, seq) for every setting.  Every simulation in the library
    runs the default (a ~16.8 ms L0 and a ~4.3 s L1); the knobs let a
    benchmark time other geometries.

    Raises [Invalid_argument] if [capacity < 1], [tick_bits] is outside
    [\[1, 40\]], or [wheel_slots] is not a power of two [>= 2]. *)

val add : 'a t -> time:Time.t -> 'a -> handle
(** [add q ~time x] schedules [x] at [time] and returns its handle.
    [time] may be in the queue's past; ordering is by time alone, the
    queue does not know the current instant.  Raises [Failure] if the
    insertion sequence counter would overflow (after [max_int]
    insertions without an intervening {!clear} — unreachable in
    practice, but guarded rather than silently wrapping, because a
    wrapped sequence would corrupt same-instant ordering). *)

val cancel : 'a t -> handle -> unit
(** [cancel q h] takes the event named by [h] out of the queue at once.
    Cancelling twice, or cancelling an already-fired event, is a
    no-op. *)

val is_cancelled : 'a t -> handle -> bool
(** Whether the event was cancelled (fired events report [false]).
    Test-only: the queue's cancel tests observe handles with it. *)

val pop : 'a t -> (Time.t * 'a) option
(** [pop q] removes and returns the earliest event.  [None] iff the
    queue is empty.  Allocates an
    option and a tuple per call; the simulator's hot loop uses
    {!pop_before} instead. *)

val pop_before : 'a t -> limit:Time.t -> none:'a -> 'a
(** [pop_before q ~limit ~none] removes and returns the payload of the
    earliest event if its time is at or before [limit], or returns
    [none] — physically, the very value passed — when no event is
    due by [limit] (the queue is untouched in that case, so this also
    subsumes the old peek-then-pop double traversal).  The fired event's
    timestamp is readable via {!popped_time}.  The caller must compare
    the result against [none] with [==] and pass a [none] that cannot be
    a scheduled payload (the simulator uses a private sentinel closure).
    Allocation-free. *)

val popped_time : 'a t -> Time.t
(** The timestamp of the most recent event returned by {!pop_before} or
    {!pop}.  Meaningless before the first pop. *)

val peek_time : 'a t -> Time.t option
(** The instant of the earliest event, without removing it.  The call
    may advance the internal cursor (see the module preamble), but the
    set of queued events is unchanged.  Test-only: the queue's
    ordering tests peek with it. *)

val size : 'a t -> int
(** Number of queued events: added or armed, and not yet fired,
    cancelled or disarmed. *)

val is_empty : 'a t -> bool
(** [is_empty q] iff {!size} is zero. *)

val clear : 'a t -> unit
(** Drop all events, release every held payload for collection, and
    reset the insertion sequence and wheel cursor — the queue behaves as
    freshly created (pending handles become dead, armed timers become
    unarmed).  Test-only: the release and sequence tests reset a
    queue with it. *)

(** {1 Reusable timers}

    An intrusive, preallocated event that hot callers create once and
    rearm in place: arming an existing timer allocates nothing, unlike
    {!add} which allocates an entry and a handle per call.  A timer is
    bound to one payload at creation and to at most one pending
    occurrence at a time; rearming a pending timer reschedules it
    (equivalent to cancel-then-add, including taking a fresh insertion
    sequence number).  A timer holds a slab slot only while it is armed:
    a disarmed or fired timer occupies nothing, and one that is dropped
    is collected. *)

type 'a timer

val timer : 'a t -> 'a -> 'a timer
(** [timer q x] is a fresh, unarmed timer that will deliver [x] each
    time it fires.  The timer must only ever be armed on [q]. *)

val arm : 'a t -> 'a timer -> time:Time.t -> unit
(** [arm q tm ~time] schedules the timer at [time], rescheduling it if
    it was already pending.  Same [time] contract as {!add}.  Raises
    [Failure] on insertion-sequence overflow, as {!add} does. *)

val disarm : 'a t -> 'a timer -> unit
(** [disarm q tm] unschedules the timer.  No-op if it is not pending. *)

val timer_armed : 'a timer -> bool
(** Whether the timer is currently scheduled and will fire. *)

(**/**)

module Private : sig
  (** Test-only access; not part of the stable API. *)

  val next_seq : 'a t -> int

  val set_next_seq : 'a t -> int -> unit
  (** Test hook: jump the insertion sequence to its ceiling. *)
end
