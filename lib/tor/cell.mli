(** Tor cells.

    All circuit traffic is packaged into fixed-size 512-byte cells
    (Tor's classic wire format).  Control cells (CREATE/EXTEND/...)
    manage circuits; RELAY cells carry end-to-end payload wrapped in
    onion layers — modelled structurally by a layer counter, see
    {!Crypto_sim}.

    Cells travel inside {!Netsim.Payload.t} packets via the {!Wire}
    constructor. *)

val size : int
(** Wire size of every cell: 512 bytes. *)

val payload_capacity : int
(** Application bytes a RELAY_DATA cell can carry: 498 (512 minus the
    relay header, as in Tor). *)

type relay_command =
  | Relay_data of { stream_id : int; seq : int; length : int; last : bool }
      (** [length] application bytes of stream [stream_id]; [seq]
          numbers data cells per circuit from 0; [last] marks the final
          cell of the stream. *)
  | Relay_sendme of { stream_id : int option }
      (** Legacy flow-control credit; [None] = circuit-level. *)
  | Relay_end of { stream_id : int }

type command =
  | Create
  | Created
  | Extend of { next : Netsim.Node_id.t }
      (** Ask the receiving relay to extend the circuit to [next]. *)
  | Extended
  | Refused
      (** Admission-control refusal of a CREATE (the relay is over its
          circuit or byte budget): travels back along the built prefix
          to the client instead of CREATED.  Distinct from {!Destroy}
          — refusal means "try elsewhere", not "this circuit is
          dead". *)
  | Destroy
  | Relay of { layers : int; cmd : relay_command }
      (** [layers] onion layers still wrapped around [cmd]. *)

type t = { circuit : Circuit_id.t; command : command }

type Netsim.Payload.t += Wire of t
(** Cells as packet payloads. *)

val make : Circuit_id.t -> command -> t

val data :
  Circuit_id.t -> layers:int -> stream_id:int -> seq:int -> length:int ->
  last:bool -> t
(** Convenience constructor for RELAY_DATA.  Raises [Invalid_argument]
    if [length] is not in [\[1, payload_capacity\]] or [seq < 0] or
    [layers < 0]. *)

val is_relay : t -> bool

val relay_cmd : t -> relay_command option
(** The relay command if this is a RELAY cell. *)

val pp : Format.formatter -> t -> unit

val register_printer : unit -> unit
(** Hook cell printing into {!Netsim.Payload.pp} (idempotent). *)
