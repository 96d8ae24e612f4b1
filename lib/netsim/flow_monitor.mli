(** Per-flow accounting.

    Experiment drivers register transmit and receive events against an
    integer flow id (one per circuit/transfer) and read back byte
    counts and the time-to-last-byte, the headline metric of the
    paper's CDF. *)

type t

type flow = {
  tx_packets : int;
  tx_bytes : int;
  rx_packets : int;
  rx_bytes : int;
  first_tx : Engine.Time.t option;  (** Instant of the first transmit. *)
  last_rx : Engine.Time.t option;  (** Instant of the latest receive. *)
}

val create : unit -> t

val on_tx : t -> flow:int -> bytes:int -> now:Engine.Time.t -> unit
(** Test-only: no experiment feeds a flow monitor; only {!link_drops}
    has a program caller (ROADMAP item 10's next cut). *)

val on_rx : t -> flow:int -> bytes:int -> now:Engine.Time.t -> unit
(** Test-only, like {!on_tx}. *)

val stats : t -> flow:int -> flow option
(** [None] if the flow was never seen. *)

val time_to_last_byte : t -> flow:int -> Engine.Time.t option
(** [last_rx - first_tx]; [None] unless both ends were observed. *)

val flows : t -> int list
(** All observed flow ids, sorted. *)

val total_rx_bytes : t -> int
(** Test-only, like {!on_tx}. *)

val link_drops : Link.t array -> Link.drop_counts
(** Aggregate drop counters over a set of links, split by reason
    (queue-full vs fault-injected vs outage) — the loss ledger an
    experiment reads next to its per-flow byte counts.  Pass
    [Topology.links] for the whole network. *)
