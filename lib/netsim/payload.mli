(** Packet payloads.

    The substrate is payload-agnostic: upper layers (the Tor model, the
    BackTap transport) extend this variant with their own message types
    and match on them in their receive handlers.  The wire size lives in
    the {!Packet.t}, not here, so the substrate never needs to know how
    to measure a payload. *)

type t = ..
(** Extensible payload type. *)

type t += Raw of string  (** Uninterpreted bytes, for tests and probes. *)

val describe : (t -> string option) -> unit
(** Register a printer for an upper layer's constructors.  Printers are
    tried in registration order; the first to return [Some] wins. *)

val pp : Format.formatter -> t -> unit
(** Print via the registered printers; falls back to ["<payload>"].
    Test hook: the printer tests render payloads through it; no program
    path prints a packet. *)
