(** Plain-text result tables.

    The bench harness prints one table per experiment row set; columns
    are auto-sized, numbers right-aligned. *)

type t

val create : columns:string list -> t
(** Raises [Invalid_argument] on an empty column list. *)

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the arity differs from [columns]. *)

val render : t -> string
(** The formatted table, including a header rule. *)

val cell_time : Engine.Time.t -> string
(** Format a time cell in seconds. *)
