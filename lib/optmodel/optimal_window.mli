(** The optimal congestion window in a multi-hop circuit.

    Reimplementation of the paper's baseline model ("we developed a
    model to calculate the source's optimal congestion window in a
    multi-hop scenario"), defining optimal as the paper does: the
    minimal window that suffices to fully utilise the network.

    For hop [i] that is the bandwidth-delay product of the circuit's
    bottleneck rate [B] across hop [i]'s feedback loop at zero load:

    {v W*_i = B * R_i v}

    where [R_i] covers the data cell's serialization on node [i]'s
    uplink and node [i+1]'s downlink, the feedback message's
    serialization on the way back, and two traversals of both access
    propagation delays.  The dashed optimum of Figure 1 is the source's
    value [W*_0]; CircuitStart's backpropagation makes the source
    settle near [min_i W*_i], which {!propagated_estimate_cells}
    computes — equal to [W*_0] for homogeneous delays, an
    underestimate otherwise (paper §2, "Backpropagation"). *)

val bottleneck_rate : Path_model.t -> Engine.Units.Rate.t
(** Smallest access rate on the path. *)

val bottleneck_position : Path_model.t -> int
(** Node index of the bottleneck (first minimum). *)

val hop_feedback_rtt :
  ?cell_size:int -> ?feedback_size:int -> Path_model.t -> int -> Engine.Time.t
(** [hop_feedback_rtt path i] is [R_i], the zero-load cell→feedback
    loop time of hop [i].  [cell_size] defaults to 520 bytes (cell +
    hop envelope), [feedback_size] to 43.  Raises [Invalid_argument]
    for an out-of-range hop. *)

val hop_window_cells :
  ?cell_size:int -> ?feedback_size:int -> Path_model.t -> int -> int
(** [W*_i] in cells (ceiling, at least 1). *)

val source_window_cells : ?cell_size:int -> ?feedback_size:int -> Path_model.t -> int
(** [W*_0] — the dashed line of Figure 1. *)

val propagated_estimate_cells :
  ?cell_size:int -> ?feedback_size:int -> Path_model.t -> int
(** [min_i W*_i] — what backpropagation delivers to the source. *)
