(** Data sizes and link rates.

    Sizes are byte counts in plain [int]s; rates are bits per second.
    The module exists so that every conversion between bytes, bits and
    time lives in exactly one place — unit mix-ups are the classic
    simulator bug. *)

(** {1 Data sizes} *)

val kib : int -> int
(** [kib n] is [n * 1024] bytes. *)

val mib : int -> int
(** [mib n] is [n * 1024 * 1024] bytes. *)

val pp_bytes : Format.formatter -> int -> unit
(** Human-readable size (["512B"], ["1.5KiB"], ["2.0MiB"]). *)

(** {1 Rates} *)

module Rate : sig
  type t
  (** A link rate in bits per second.  Always strictly positive. *)

  val bps : int -> t
  (** [bps n] is [n] bits per second.  Raises [Invalid_argument] if
      [n <= 0]. *)

  val mbit : int -> t
  (** [mbit n] is [n * 1_000_000] bits per second. *)

  val mbit_f : float -> t
  (** [mbit_f x] is [x] megabits per second, rounded to a whole bit/s
      (at least 1). *)

  val to_bps : t -> int
  (** [to_bps r] is the rate in bits per second. *)

  val to_bytes_per_sec : t -> float
  (** [to_bytes_per_sec r] is the rate in bytes per second. *)

  val transmission_time : t -> int -> Time.t
  (** [transmission_time r bytes] is the time it takes to serialize
      [bytes] bytes onto a link of rate [r], rounded up to a whole
      nanosecond so that back-to-back transmissions never overlap.
      Raises [Invalid_argument] on negative [bytes]. *)

  val min : t -> t -> t
  (** The smaller of two rates. *)

  val compare : t -> t -> int

  val scale : t -> float -> t
  (** [scale r x] is [r] multiplied by [x] (at least 1 bit/s).
      Raises [Invalid_argument] if [x] is not finite or [x <= 0.]. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable rate (["3.0Mbit/s"], ["512kbit/s"]). *)
end
