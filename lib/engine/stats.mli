(** Online and offline statistics.

    {!Online} accumulates count/mean/variance/min/max in O(1) memory
    (Welford's algorithm) — used for per-flow and per-queue counters
    that live for a whole simulation.  The array helpers compute
    percentiles and empirical CDFs for the evaluation figures. *)

module Online : sig
  type t
  (** A mutable accumulator. *)

  val create : unit -> t
  val add : t -> float -> unit

  val count : t -> int
  val mean : t -> float
  (** Mean of the samples; [nan] if empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [0.] with fewer than two samples. *)

  val min : t -> float
  (** Smallest sample; [nan] if empty. *)

  val max : t -> float
  (** Largest sample; [nan] if empty. *)

  val sum : t -> float
  val merge : t -> t -> t
  (** [merge a b] is a fresh accumulator equivalent to having seen both
      sample streams (Chan's parallel update). *)

  val pp : Format.formatter -> t -> unit
end

(** {1 Streaming quantile sketch} *)

module Sketch : sig
  (** A fixed-bin mergeable histogram for streaming quantiles.

      Consensus-scale runs complete millions of circuits; retaining one
      float per circuit just to read a few percentiles at the end is
      the memory bottleneck.  A sketch holds [bins] integer counters
      over a fixed value range plus exact min/max/sum — O(bins) memory
      for any stream length — and answers quantiles by cumulative walk
      with linear interpolation inside the target bin, so the error is
      at most one bin width (exact at the observed extremes).

      The state is a function of the sample multiset alone: feeding the
      same samples in any order yields a structurally equal sketch, and
      {!merge} is plain counter addition — associative, commutative,
      and deterministic, which is what keeps [--jobs 1/2/4] runs
      byte-identical when per-shard sketches are combined. *)

  type t

  val create : ?bins:int -> lo:float -> hi:float -> unit -> t
  (** [bins] equal-width bins over [\[lo, hi)] (default 512).  Samples
      outside the range are counted in side bins and answered as the
      exact observed min/max.  Raises [Invalid_argument] unless
      [bins >= 1] and [lo < hi] (finite). *)

  val add : t -> float -> unit
  (** Raises [Invalid_argument] on non-finite samples. *)

  val add_ns : t -> int -> unit
  (** [add_ns t ns] is [add t (float_of_int ns *. 1e-9)]: a duration in
      integer nanoseconds, recorded in seconds.  It allocates nothing,
      where a float computed by the caller is boxed to cross into
      [add]. *)

  val count : t -> int
  val bins : t -> int
  val range : t -> float * float

  val min : t -> float
  (** Exact smallest sample; [nan] if empty. *)

  val max : t -> float
  (** Exact largest sample; [nan] if empty. *)

  val mean : t -> float
  (** Exact mean; [nan] if empty. *)

  val merge : t -> t -> t
  (** Fresh sketch equivalent to having seen both streams.  Raises
      [Invalid_argument] if the bin layouts differ. *)

  val set_sum : t -> float -> unit
  (** Overwrite the running sum (and hence {!mean}).  Float addition is
      not associative, so a sum reassembled by {!merge} from per-shard
      sketches can differ in the last ulp from the sequential
      accumulation; a sharded run that tallies the exact sum on the
      side (e.g. in integer nanoseconds) installs the
      order-independent value here so digests stay identical across
      shard counts.  Raises [Invalid_argument] on non-finite sums. *)

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [\[0, 1\]]: estimated smallest x with
      fraction-below [>= q] (the {!Cdf.quantile} convention), clamped
      to the exact observed [\[min, max\]].  Error is bounded by one
      bin width for in-range samples.  Raises [Invalid_argument] on an
      empty sketch or [q] outside the range. *)

  val quantile_opt : t -> float -> float option
  (** Total variant of {!quantile}: [None] on an empty sketch — the
      normal outcome of a run that completed nothing — instead of an
      exception.  Still raises on [q] outside [\[0, 1\]]. *)

  val cdf_points : t -> (float * float) list
  (** Ascending step points [(value, cumulative fraction)], one per
      non-empty bin at its (clamped) upper edge, closing at
      [(max, 1.)].  Empty sketch gives [].  Test-only: no figure reads
      it; ROADMAP item 10's next cut weighs it. *)
end

(** {1 Sample buffers} *)

module Samples : sig
  (** A growable buffer of float samples with a cached sorted view.

      Experiments accumulate thousands of per-circuit samples and then
      query several percentiles of the same data; this keeps the
      samples in a flat, doubling float array (no list cells) and
      sorts at most once per burst of queries — the cache is
      invalidated by the next {!add}.

      At consensus scale, exact retention is the memory bottleneck:
      {!Bounded} mode feeds every sample to a {!Sketch} instead and
      answers percentiles from it in O(bins) memory.  The default
      {!Exact} mode is byte-identical to the historical behaviour. *)

  type mode =
    | Exact  (** Retain every sample; exact percentiles (default). *)
    | Bounded of { bins : int; lo : float; hi : float }
        (** Sketch-backed: O(bins) memory, percentile error bounded by
            one bin width; {!to_array}/{!sorted} become unavailable. *)

  type t

  val create : ?capacity:int -> ?mode:mode -> unit -> t
  (** An empty buffer; [capacity] pre-sizes the backing array (default
      64) and is ignored in [Bounded] mode.  Raises [Invalid_argument]
      if [capacity < 1] or the bounded layout is invalid. *)

  val add : t -> float -> unit

  val length : t -> int
  val is_empty : t -> bool

  val to_array : t -> float array
  (** The samples in insertion order (fresh array).  Raises
      [Invalid_argument] in [Bounded] mode — samples are not
      retained. *)

  val sorted : t -> float array
  (** The samples in ascending order.  The returned array is the cache
      itself — treat it as read-only.  Raises [Invalid_argument] in
      [Bounded] mode. *)

  val percentile : t -> float -> float
  (** Linear rank interpolation on the cached sorted view; same
      contract as the array {!val:percentile}.  In [Bounded] mode,
      answered by {!Sketch.quantile} (error at most one bin width). *)

  val median : t -> float
  val min : t -> float
  (** Smallest sample; [nan] if empty. *)

  val max : t -> float
  (** Largest sample; [nan] if empty. *)

  val mean : t -> float
  (** Mean of the samples; [nan] if empty. *)

  val cdf_points : t -> (float * float) list
  (** Empirical CDF of the samples; same contract as the array
      {!val:cdf_points}.  In [Bounded] mode, {!Sketch.cdf_points}.
      Test-only, like {!Sketch.cdf_points}. *)
end

(** {1 Array statistics} *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], linear interpolation
    between closest ranks ([xs] need not be sorted; a sorted copy is
    made).  Raises [Invalid_argument] on an empty array or [p] outside
    the range. *)

val median : float array -> float
(** [median xs = percentile xs 50.]. *)

val cdf_points : float array -> (float * float) list
(** [cdf_points xs] is the empirical CDF as [(value, fraction <= value)]
    steps, sorted by value, one point per distinct sample.  Empty input
    gives [].  Test reference: the {!Samples} tests compare their curve
    with it. *)
