(** Figure series: (x, y) float pairs derived from simulation traces.

    The figure pipeline converts {!Engine.Timeseries.t} recordings
    (nanoseconds, cells) into plot units (milliseconds, kilobytes) and
    aligns several series onto one grid. *)

type point = float * float
type t = point array

val ms_of_time : Engine.Time.t -> float
(** x-axis helper: time in milliseconds. *)

val kb_of_cells : cell_size:int -> float -> float
(** y-axis helper: cells → kilobytes (decimal kB, as the paper's
    axis). *)

val constant : x_max:float -> step:float -> float -> t
(** [constant ~x_max ~step y] is the horizontal line [y] sampled on
    [0, step, ...] — the figure's dashed optimum.  Raises
    [Invalid_argument] if [step <= 0.] or [x_max < 0.]. *)

val y_max : t -> float
(** Largest y (0. for an empty series). *)
