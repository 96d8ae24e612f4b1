(** Application streams: byte sources and sinks.

    A {!Source} slices a fixed transfer into RELAY_DATA cells (the
    paper's workload: "transferring a fixed amount of data"); a
    {!Sink} absorbs them at the far end and knows when the last byte
    arrived — the time-to-last-byte metric of Figure 1. *)

module Source : sig
  type t

  val create : ?start_byte:int -> stream_id:int -> bytes:int -> unit -> t
  (** A source with [bytes] to send.  [start_byte] (default 0) skips
      the already-delivered prefix of a resumed transfer: emission
      starts at the cell containing that byte, with sequence numbers
      continuing where the previous attempt's contiguous prefix ended.
      Raises [Invalid_argument] if [bytes <= 0], if [start_byte] is
      outside [\[0, bytes)], or if it is not a multiple of
      {!Cell.payload_capacity} (resume offsets come from
      {!Sink.delivered_bytes}, which is always cell-aligned while the
      transfer is incomplete). *)

  val remaining : t -> int

  val cell_count : t -> int
  (** Total RELAY_DATA cells this transfer needs. *)

  val next_seq : t -> int
  (** The sequence number the next cell will carry. *)

  val take_cell : t -> Circuit_id.t -> layers:int -> Cell.t
  (** Produce the next data cell (consuming up to
      {!Cell.payload_capacity} bytes), wrapped in [layers] onion
      layers.  The final cell carries [last = true].  Raises
      [Invalid_argument] when the source is drained
      ([remaining = 0]). *)
end

module Sink : sig
  type t

  val create : ?start_byte:int -> expected_bytes:int -> unit -> t
  (** A sink expecting [expected_bytes] in total, of which
      [start_byte] (default 0) were already delivered by a previous
      circuit generation and will not arrive again.  Raises
      [Invalid_argument] under the same conditions as
      {!Source.create}. *)

  val deliver : t -> now:Engine.Time.t -> Cell.relay_command -> unit
  (** Account an exposed relay command.  Duplicate data cells (same
      seq) are counted once — retransmissions must not complete a
      transfer early.  Non-data commands are ignored.  The sink keeps
      one slot per cell of the stream, so a data cell's [seq] must lie
      in [\[0, cells)], where [cells] is the stream's cell count
      ([expected_bytes] over {!Cell.payload_capacity}, rounded up);
      raises [Invalid_argument] otherwise.  Delivering allocates
      nothing except the [completed_at] of the completing cell. *)

  val received_bytes : t -> int
  val cells_received : t -> int
  (** Test-only: a counter accessor that ROADMAP item 4's probes replace. *)

  val duplicates : t -> int

  val delivered_bytes : t -> int
  (** The contiguous delivered prefix in bytes: every cell of the
      stream up to this offset has arrived (counting the [start_byte]
      handed to {!create}).  Unlike {!received_bytes} it ignores cells
      beyond a hole, so it is the safe resume offset for a transfer
      that dies mid-flight.  Cell-aligned until the final cell
      arrives. *)

  val complete : t -> bool
  (** All expected bytes arrived. *)

  val completed_at : t -> Engine.Time.t option
  (** Instant the last missing byte arrived. *)
end
