(** Empirical cumulative distribution functions.

    Figure 1's bottom panel plots the CDF of time-to-last-byte for two
    systems; the paper's claim "improve ... by up to 0.5 seconds" is
    the largest horizontal gap between the curves.  This module builds
    CDFs from samples and computes exactly those comparisons. *)

type t

val of_samples : float array -> t
(** Raises [Invalid_argument] on an empty array or non-finite
    samples. *)

val of_sketch : ?resolution:int -> Engine.Stats.Sketch.t -> t
(** Approximate CDF from a streaming {!Engine.Stats.Sketch}: the curve
    through [resolution] (default 199) evenly spaced sketch quantiles
    plus the exact observed extremes.  Quantile error is bounded by the
    sketch's bin width plus the grid spacing.  Raises
    [Invalid_argument] on an empty sketch or [resolution < 1]. *)

val of_sketch_opt : ?resolution:int -> Engine.Stats.Sketch.t -> t option
(** Total variant of {!of_sketch}: [None] on an empty sketch (a run
    that completed nothing has no curve) instead of an exception.
    Still raises on [resolution < 1]. *)

val quantile : t -> float -> float
(** [quantile cdf q] for [q] in [\[0, 1\]]: the smallest sample [x]
    such that a fraction of at least [q] of the samples are [<= x].
    Raises [Invalid_argument] outside the range. *)

val points : t -> (float * float) list
(** Step points [(value, cumulative fraction)], ascending, one per
    distinct value. *)

val horizontal_gap : better:t -> worse:t -> float
(** The largest [quantile worse q - quantile better q] over a fine grid
    of [q] — "how many seconds earlier does the better system reach the
    same completion fraction", the paper's improvement metric.  Can be
    negative if [better] never leads. *)

val dominates : better:t -> worse:t -> bool
(** Whether [better]'s curve is nowhere to the right of [worse]'s
    (checked on the quantile grid). *)
