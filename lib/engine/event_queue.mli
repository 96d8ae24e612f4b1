(** The simulator's future event list.

    A hierarchical timer wheel in front of a binary min-heap: events
    within ~16.8ms of the scheduler's cursor sit in fixed wheel slots
    (O(1) insertion, no comparisons), and longer-horizon events spill
    into an overflow heap, migrating into the wheel as the cursor
    approaches their deadline.  Firing order is exactly (time, insertion
    sequence number), bit-identical to the heap-only scheduler this
    replaced: two events scheduled for the same instant fire in the
    order they were scheduled.  That stability matters — a relay that
    enqueues a cell and then arms a timer for the same instant relies on
    the cell handler running first — and it is what makes whole
    simulations deterministic.

    Cancellation of a {!handle} is lazy: a cancelled event stays where
    it is, marked, and is discarded when it surfaces.  This keeps
    [cancel] O(1) at the cost of occupied cells, which is the right
    trade-off for retransmission timers that are almost always
    cancelled.  The discard pass is the {e lazy-deletion sweep}: every
    read-or-pop operation ({!pop}, {!pop_before}, {!peek_time}) first
    settles the queue by discarding cancelled entries at the head until
    a live one surfaces.  The sweep mutates internal structure (and
    advances the internal cursor) but never changes the set of live
    events — so [peek_time], despite its read-only name, may reorganize
    the queue; observably it is pure. *)

type 'a t
(** A queue of events carrying payloads of type ['a]. *)

type handle
(** Names a scheduled event so it can be cancelled. *)

val create : ?capacity:int -> ?tick_bits:int -> ?wheel_slots:int -> unit -> 'a t
(** A fresh, empty queue.  [capacity] pre-sizes the overflow heap
    (default 256) so a simulation's steady-state event population never
    pays for growth doublings; it is a hint, not a bound.

    [tick_bits] (default 16: 65.536 µs ticks) and [wheel_slots]
    (default 256, must be a power of two) set the wheel geometry; the
    window covers [2^tick_bits * wheel_slots] ns.  Events inside the
    window are O(1) slot inserts; events beyond it take the overflow
    heap at O(log n).  Geometry is purely a performance knob — the
    firing order is exact (time, seq) for every setting, because each
    drained tick is sorted before it fires.  Every simulation in the
    library runs the default (~16.8 ms window); the knobs let a
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
(** [cancel q h] marks the event named by [h] as cancelled.  Cancelling
    twice, or cancelling an already-fired event, is a no-op. *)

val is_cancelled : 'a t -> handle -> bool
(** Whether the event was cancelled (fired events report [false]). *)

val pop : 'a t -> (Time.t * 'a) option
(** [pop q] removes and returns the earliest live event, skipping
    cancelled entries.  [None] iff no live events remain.  Allocates an
    option and a tuple per call; the simulator's hot loop uses
    {!pop_before} instead. *)

val pop_before : 'a t -> limit:Time.t -> none:'a -> 'a
(** [pop_before q ~limit ~none] removes and returns the payload of the
    earliest live event whose time is at or before [limit], or returns
    [none] — physically, the very value passed — when no live event is
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
(** The instant of the earliest live event, without removing it.  Runs
    the lazy-deletion sweep first (see the module preamble): cancelled
    entries at the head are discarded, so the call may mutate internal
    structure, but the live-event set is unchanged. *)

val size : 'a t -> int
(** Number of live (non-cancelled, non-popped) events. *)

val is_empty : 'a t -> bool
(** [is_empty q] iff {!size} is zero. *)

val clear : 'a t -> unit
(** Drop all events, release every held payload for collection, and
    reset the insertion sequence and wheel cursor — the queue behaves as
    freshly created (pending handles become dead, armed timers become
    unarmed). *)

(** {1 Reusable timers}

    An intrusive, preallocated event that hot callers create once and
    rearm in place: arming an existing timer allocates nothing, unlike
    {!add} which allocates an entry and a handle per call.  A timer is
    bound to one payload at creation and to at most one pending
    occurrence at a time; rearming a pending timer reschedules it
    (equivalent to cancel-then-add, including taking a fresh insertion
    sequence number).  Arm and disarm are eager — the entry really
    leaves the queue — so, unlike lazily-cancelled handles, a disarmed
    timer occupies nothing. *)

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
end
