(** Simulated time.

    Both instants and durations are represented as a number of
    nanoseconds held in an immediate [int].  The range is
    [\[-2^62, 2^62 - 1\]] nanoseconds, roughly ±146 years of simulated
    time, far beyond any experiment in this repository.  Instants are
    measured from the simulation epoch ([zero]); durations are plain
    differences of instants.  The two share one type on purpose: the
    arithmetic is the same and the simulator never needs wall-clock
    time.

    Saturation rule: {!add} of two positive values saturates at
    {!max_value} ("never") instead of wrapping, and the conversions
    from wider or inexact representations ({!of_ns64}, {!of_sec_f},
    {!of_ms_f}, {!scale}) clamp to the range instead of wrapping.
    {!sub}, {!mul_int} and the integer constructors are plain int
    arithmetic.

    The type is a private [int]: hot paths read the nanosecond count
    with a coercion, [(t :> int)], which costs nothing and allocates
    nothing, while every value is still built through this module. *)

type t = private int
(** An instant or duration, in nanoseconds. *)

val zero : t
(** The simulation epoch (also the zero duration). *)

val ns : int -> t
(** [ns n] is a duration of [n] nanoseconds. *)

val us : int -> t
(** [us n] is a duration of [n] microseconds. *)

val ms : int -> t
(** [ms n] is a duration of [n] milliseconds. *)

val s : int -> t
(** [s n] is a duration of [n] seconds. *)

val of_sec_f : float -> t
(** [of_sec_f x] is the duration of [x] seconds, rounded to the nearest
    nanosecond and clamped to the representable range.  Raises
    [Invalid_argument] if [x] is not finite. *)

val of_ms_f : float -> t
(** [of_ms_f x] is the duration of [x] milliseconds, rounded to the
    nearest nanosecond and clamped to the representable range.  Raises
    [Invalid_argument] if [x] is not finite. *)

val to_ns : t -> int64
(** [to_ns t] is the raw nanosecond count as an [int64].  Within the
    simulator, prefer [(t :> int)], which does not allocate. *)

val of_ns64 : int64 -> t
(** [of_ns64 n] is the instant/duration of [n] nanoseconds, clamped to
    the representable range. *)

val to_sec_f : t -> float
(** [to_sec_f t] is [t] expressed in seconds. *)

val to_ms_f : t -> float
(** [to_ms_f t] is [t] expressed in milliseconds. *)

val add : t -> t -> t
(** [add a b] is [a + b].  Saturates at [max_value] instead of wrapping. *)

val diff : t -> t -> t
(** [diff later earlier] is [sub later earlier]. *)

val mul_int : t -> int -> t
(** [mul_int t k] is [t] scaled by the integer factor [k]. *)

val ratio : t -> t -> float
(** [ratio a b] is [a / b] as a float.  Raises [Division_by_zero] if
    [b] is {!zero}. *)

val compare : t -> t -> int
(** Total order on instants/durations. *)

val equal : t -> t -> bool

val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val is_negative : t -> bool
(** [is_negative t] is true iff [t] is a negative duration. *)

val max_value : t
(** The largest representable instant, [max_int] nanoseconds (about
    146 years); used as "never". *)

val pp : Format.formatter -> t -> unit
(** [pp fmt t] prints [t] with an automatically chosen unit
    (e.g. ["1.5ms"], ["250us"], ["2.0s"]). *)

val to_string : t -> string
(** [to_string t] is [Format.asprintf "%a" pp t]. *)
