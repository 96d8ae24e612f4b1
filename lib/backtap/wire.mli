(** BackTap wire format.

    Between neighbouring relays, cells travel inside a hop-local
    envelope carrying a per-hop sequence number (BackTap runs its own
    framing over UDP; the 8-byte header models that).  The feedback
    message — "your cell [hop_seq] has just been forwarded onwards" —
    is a small separate datagram, not a cell: it must not compete for
    cell-sized transmission slots. *)

type Netsim.Payload.t +=
  | Bt_cell of { hop_seq : int; cell : Tor_model.Cell.t }
        (** A cell in flight on one hop; [hop_seq] numbers the sending
            hop's transmissions from 0 (retransmissions reuse the
            number). *)
  | Bt_feedback of { circuit : Tor_model.Circuit_id.t; hop_seq : int }
        (** Sent to the predecessor when the cell it sent as [hop_seq]
            is forwarded to the next hop (or delivered, at the final
            hop). *)

val cell_size : int
(** Envelope wire size: {!Tor_model.Cell.size} + 8 header bytes. *)

val feedback_size : int
(** Feedback wire size: 43 bytes (circuit id, command, digest). *)
