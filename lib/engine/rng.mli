(** Deterministic, splittable pseudo-random numbers.

    The simulator must be reproducible: the same seed must yield the same
    relay network, the same circuits and the same event schedule, so that
    "with CircuitStart" and "without CircuitStart" runs are paired
    (identical workloads, differing only in the algorithm).  The global
    [Random] state cannot give that guarantee once components draw in
    data-dependent order, so every component receives its own generator,
    obtained with {!split}.

    The core generator is SplitMix64 (Steele, Lea & Flood, OOPSLA'14):
    64-bit state, 64-bit output, passes BigCrush, and supports cheap
    splitting by deriving a child seed from the parent stream.  The
    state is kept unboxed, so the integer draws ({!int},
    {!bool}, {!bernoulli}, {!exponential_ns}, {!Weighted.draw})
    allocate nothing; draws that return a [float] or an [int64] box
    their result when the call is not inlined. *)

type t
(** A mutable generator. *)

val create : int -> t
(** [create seed] is a fresh generator.  Different seeds give independent
    streams; the same seed always gives the same stream. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of the
    parent's subsequent output.  Advances [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the
    same stream.  Useful for paired experiments. *)

val bits64 : t -> int64
(** Next raw 64-bit output.  Test reference: the determinism tests
    compare raw streams with it. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Raises
    [Invalid_argument] if [bound <= 0].  Unbiased (rejection
    sampling). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)].  [bound] must be
    positive and finite. *)

val bool : t -> bool
(** A fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]: one uniform in
    [\[0, 1)] below [p].  It draws exactly what [float t 1. < p] does,
    and allocates nothing. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from Exp(1/mean).  [mean] must be
    positive. *)

val exponential_ns : t -> mean:float -> int
(** [exponential_ns t ~mean] is [Time.of_sec_f (exponential t ~mean)]
    as an int: the same draw of seconds, rounded to the nearest
    nanosecond and clamped to [Time.max_value].  It allocates nothing
    when [mean] is already boxed (a record field, a constant), where
    [exponential] boxes its result.  Raises [Invalid_argument] if
    [mean] is not positive and finite, or the duration is not finite. *)

val normal : t -> mu:float -> sigma:float -> float
(** [normal t ~mu ~sigma] draws from N(mu, sigma^2) via Box–Muller.
    [sigma] must be non-negative. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [lognormal t ~mu ~sigma] draws X with ln X ~ N(mu, sigma^2) — the
    canonical heavy-tailed model for relay bandwidths. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] is a uniformly random element.  Raises
    [Invalid_argument] on an empty array. *)

val pick_weighted : t -> ('a * float) array -> 'a
(** [pick_weighted t arr] picks an element with probability proportional
    to its weight.  Weights must be non-negative with a positive sum;
    raises [Invalid_argument] otherwise. *)

(** Bandwidth-weighted index draws in O(1) expected time.

    [create] sums the weights left to right and builds a guide table
    (the cutpoint method: Chen & Asau, 1974; Devroye, {i Non-Uniform
    Random Variate Generation}, III.2.4) in one O(n) pass, with n
    buckets for n weights.  A {!draw} is then one uniform over the
    total, a table read and a short forward walk: O(1) expected steps
    for any weight skew, and no allocation.  It returns exactly the
    index that a binary search for the first cumulative weight above
    [float t total] returns. *)
module Weighted : sig
  type rng := t

  type t
  (** An immutable table, safe to share between domains. *)

  val create : float array -> t
  (** [create weights] is the table over [weights].  Raises
      [Invalid_argument] if [weights] is empty, holds a negative or NaN
      weight, or sums to a total that is not positive and finite. *)

  val total : t -> float
  (** The sum of the weights, added left to right. *)

  val find : t -> float -> int
  (** [find w x] is the first index whose cumulative weight exceeds
      [x], or the last index if none does (for [x >= total w]).  A
      zero weight is never found for [x] in [\[0, total w)]. *)

  val draw : t -> rng -> int
  (** [draw w t] is [find w (float t (total w))]: index [i] with
      probability proportional to its weight.  Advances [t] by one
      draw. *)
end

