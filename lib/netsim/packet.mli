(** Packets on the wire.

    A packet is addressed node-to-node (source and final destination);
    intermediate hops forward it unchanged.  [size] is the wire size
    used for serialization-time and queue-occupancy accounting and is
    fixed at creation — the substrate never inspects the payload. *)

type t = private {
  id : int;  (** Unique per {!fresh_id_state}; for tracing and tests. *)
  src : Node_id.t;
  dst : Node_id.t;
  size : int;  (** Wire size in bytes, > 0. *)
  payload : Payload.t;
  sent_at : Engine.Time.t;  (** Creation instant (source timestamp). *)
}

type id_state
(** Generator of unique packet ids (one per network, so ids are dense
    and runs are reproducible). *)

val fresh_id_state : unit -> id_state

val next_id : id_state -> int
(** The id the next {!make} on this state will assign.  Ids are
    allocated in increasing order, so this is a monotone watermark:
    every already-created packet has a smaller id, every future one an
    id at least this large. *)

val make :
  id_state -> src:Node_id.t -> dst:Node_id.t -> size:int -> now:Engine.Time.t ->
  Payload.t -> t
(** [make ids ~src ~dst ~size ~now payload] is a fresh packet.  Raises
    [Invalid_argument] if [size <= 0]. *)

val placeholder : t
(** A packet that is never sent (id [-1]).  It fills the empty slots of
    preallocated packet buffers, so a drained slot does not keep a
    delivered packet alive. *)

val pp : Format.formatter -> t -> unit
