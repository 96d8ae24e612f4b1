(** Online and offline statistics.

    {!Online} accumulates count/mean/min/max in O(1) memory (Welford's
    running mean) — used for per-transfer cell latencies that live for
    a whole simulation.  {!Sketch} answers streaming quantiles at
    consensus scale, {!Samples} retains exact samples when a run asks
    for them, and {!percentile} reads one percentile of an array. *)

module Online : sig
  type t
  (** A mutable accumulator. *)

  val create : unit -> t
  val add : t -> float -> unit

  val count : t -> int
  val mean : t -> float
  (** Mean of the samples; [nan] if empty. *)

  val min : t -> float
  (** Smallest sample; [nan] if empty.  Test reference: the transport
      tests check the smallest cell latency against the path's
      propagation delay. *)

  val max : t -> float
  (** Largest sample; [nan] if empty. *)

  val merge : t -> t -> t
  (** [merge a b] is a fresh accumulator equivalent to having seen both
      sample streams (Chan's parallel update). *)
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

  val min : t -> float
  (** Exact smallest sample; [nan] if empty. *)

  val max : t -> float
  (** Exact largest sample; [nan] if empty. *)

  val mean : t -> float
  (** Exact mean; [nan] if empty.  Test reference: the golden network
      fixture prints it, and the merge tests compare it across shard
      layouts. *)

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
end

(** {1 Array statistics} *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], linear interpolation
    between closest ranks ([xs] need not be sorted; a sorted copy is
    made).  Raises [Invalid_argument] on an empty array or [p] outside
    the range. *)

(** {1 Sample buffers} *)

module Samples : sig
  (** A growable buffer of float samples: a flat, doubling float array
      (no list cells), for runs that retain every sample exactly. *)

  type t

  val create : unit -> t
  (** An empty buffer. *)

  val add : t -> float -> unit

  val to_array : t -> float array
  (** The samples in insertion order (fresh array). *)
end
