(** Node identifiers.

    Dense integers assigned by the topology in creation order; used as
    routing-table and adjacency keys throughout the substrate. *)

type t

val of_int : int -> t
(** [of_int i] for [i >= 0]; raises [Invalid_argument] otherwise. *)

val to_int : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
