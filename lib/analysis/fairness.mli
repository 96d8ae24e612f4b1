(** Fairness metrics across concurrent circuits.

    The paper's motivation asks Tor traffic to "behave much like
    background traffic"; one quantifiable aspect is how evenly
    concurrent circuits share the relays.  Jain's index over
    per-circuit throughputs is the standard measure: 1.0 = perfectly
    even, 1/n = one circuit starves all others. *)

val jain_index : float array -> float
(** [jain_index xs] = (Σx)² / (n·Σx²) over non-negative allocations.
    Raises [Invalid_argument] on an empty array, negative or non-finite
    entries, or an all-zero allocation. *)

val throughputs_bytes_per_sec : bytes_each:int -> float array -> float array
(** [throughputs_bytes_per_sec ~bytes_each ttlb_seconds] converts
    equal-sized transfer completion times into per-circuit throughputs.
    Raises [Invalid_argument] if [bytes_each <= 0] or any time is not
    positive. *)
