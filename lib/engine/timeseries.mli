(** Append-only (time, value) recordings.

    The cwnd traces of Figure 1 are step functions: the window holds its
    value until the next change.  A [Timeseries.t] records the change
    points in simulation order and can be queried as a step function or
    resampled onto a fixed grid for plotting. *)

type t

val create : unit -> t
(** A fresh, empty series. *)

val record : t -> Time.t -> float -> unit
(** [record ts time v] appends a point.  Raises [Invalid_argument] if
    [time] is before the last recorded point — series are recorded in
    simulation order by construction. *)

val points : t -> (Time.t * float) array
(** All points, oldest first (fresh array). *)

val resample : t -> step:Time.t -> stop:Time.t -> (Time.t * float) array
(** [resample ts ~step ~stop] samples the step function at
    [0, step, 2*step, ... <= stop].  Instants before the first recorded
    point repeat the first point's value (a window exists from t=0).
    Empty series resample to an empty array.  Raises [Invalid_argument]
    if [step] is not positive.  Test reference: the step function that
    the figure drivers fold over {!points} by hand. *)
