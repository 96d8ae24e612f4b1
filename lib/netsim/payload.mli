(** Packet payloads.

    The substrate is payload-agnostic: upper layers (the Tor model, the
    BackTap transport) extend this variant with their own message types
    and match on them in their receive handlers.  The wire size lives in
    the {!Packet.t}, not here, so the substrate never needs to know how
    to measure a payload. *)

type t = ..
(** Extensible payload type. *)

type t += Raw of string  (** Uninterpreted bytes, for tests and probes. *)
