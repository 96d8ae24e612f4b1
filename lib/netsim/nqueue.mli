(** Bounded drop-tail FIFO for link egress.

    Capacity can be limited in packets, bytes, or both; an arriving
    packet that does not fit is dropped (tail drop), exactly like ns-3's
    default [DropTailQueue].  The queue keeps occupancy and drop
    statistics that the evaluation reads back.

    The queue is a ring buffer that grows by doubling and never
    shrinks: once it has held its peak occupancy, enqueueing and
    dequeueing allocate nothing.  Each slot can carry the packet's
    transmit callback ({!push}), so a link's [on_transmit] travels with
    the packet through the queue. *)

type t

type capacity = {
  max_packets : int option;  (** [None] = unlimited. *)
  max_bytes : int option;  (** [None] = unlimited. *)
}

val unbounded : capacity
val packets : int -> capacity
(** [packets n] limits to [n] packets; raises [Invalid_argument] if
    [n <= 0]. *)

val bytes : int -> capacity
(** [bytes n] limits to [n] bytes; raises [Invalid_argument] if
    [n <= 0]. *)

val create : capacity -> t

val enqueue : t -> Packet.t -> bool
(** [enqueue q p] appends [p]; [false] means the packet was dropped
    because either limit would be exceeded. *)

val push : t -> Packet.t -> (int -> unit) option -> bool
(** [push q p on_transmit] is {!enqueue} with [on_transmit] stored
    alongside [p]; a dropped packet's callback is discarded with it. *)

val head_on_transmit : t -> (int -> unit) option
(** The callback stored with the head packet ([None] if there is none
    or the queue is empty). *)

val take : t -> Packet.t
(** Remove and return the head packet, discarding its callback, without
    allocating.  Raises [Invalid_argument] on an empty queue. *)

val dequeue : t -> Packet.t option
(** Remove and return the head packet. *)

val peek : t -> Packet.t option
val length : t -> int
(** Packets currently queued. *)

val byte_length : t -> int
(** Bytes currently queued.  Test-only: a counter accessor that ROADMAP item 4's probes replace. *)

val is_empty : t -> bool

(** {1 Statistics} *)

val drops : t -> int
(** Packets rejected so far. *)

val dropped_bytes : t -> int
(** Test-only: a counter accessor that ROADMAP item 4's probes replace. *)

val enqueued_total : t -> int
(** Packets accepted so far (including those since dequeued).
    Test-only: a counter accessor that ROADMAP item 4's probes replace. *)

val high_watermark_bytes : t -> int
(** Largest byte occupancy ever observed. *)
