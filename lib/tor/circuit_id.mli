(** Circuit identifiers.

    One id names a circuit end to end (the real Tor renumbers per hop;
    the transport dynamics don't care, so we keep the simpler global
    id — the switchboard keys on it at every node). *)

type t

val of_int : int -> t
(** [of_int i] for [i >= 0]; raises [Invalid_argument] otherwise. *)

val to_int : t -> int
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t

type gen
(** Sequential id generator. *)

val generator : unit -> gen
val next : gen -> t
