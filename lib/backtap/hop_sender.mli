(** The windowed sender of one hop.

    One instance lives at each node that forwards a circuit's cells to
    a successor (the client and every relay; the server has none).  It
    owns the hop's {!Circuitstart.Controller.t}, keeps at most [cwnd]
    cells in flight, measures the cell→feedback RTT per transmission,
    and retransmits cells whose feedback does not arrive (Jacobson RTO,
    Karn's rule for samples).

    There is one way to ack a cell: the sender's single
    {!set_forward_ack} callback, run with the integer the cell was
    queued under by {!forward}, at the instant the cell first goes on
    the wire towards the successor.  "When forwarding a cell to its
    successor, each relay issues a feedback message to its
    predecessor" (paper §2) is implemented by making that callback emit
    the feedback; the client's sender uses it to stamp the cell's wire
    departure.  No per-cell closure exists. *)

type t

val create :
  sb:Tor_model.Switchboard.t ->
  circuit:Tor_model.Circuit_id.t ->
  succ:Netsim.Node_id.t ->
  controller:Circuitstart.Controller.t ->
  ?rto_min:Engine.Time.t ->
  ?rto_initial:Engine.Time.t ->
  ?max_retries:int ->
  unit ->
  t
(** [rto_min] defaults to 400 ms, [rto_initial] to 1 s.  Consecutive
    retransmissions of the same cell back off exponentially (doubling,
    capped at 64x) — under Karn's rule the estimator is frozen while
    retransmissions are in progress, so backoff is what re-opens the
    window for a fresh sample.

    [max_retries] (default 8, must be positive) bounds the
    retransmission budget per cell: when any one cell has been
    retransmitted that many times without feedback, the sender {e
    trips} — it discards all state, goes terminal (see {!aborted}) and
    fires the {!set_on_abort} callback.  This is the failure-detection
    bound: a dead successor is declared unreachable after at most
    [sum of the backed-off RTOs] rather than retransmitting forever. *)

val submit : t -> Tor_model.Cell.t -> unit
(** Queue a cell that needs no ack; it is transmitted as soon as the
    window allows. *)

val set_forward_ack : t -> (int -> unit) -> unit
(** Install the sender's one ack callback, run for the cells queued
    with {!forward} (default: does nothing). *)

val forward : t -> ack_seq:int -> Tor_model.Cell.t -> unit
(** [forward t ~ack_seq cell] queues [cell] like {!submit}; when the
    cell first goes on the wire (never again on a retransmission), the
    {!set_forward_ack} callback runs with [ack_seq].  A relay passes
    the cell's hop sequence on the upstream hop; the client passes the
    index of the cell's departure stamp.  One callback per sender,
    instead of one closure per cell, so queueing and acking allocate
    nothing per cell.  [ack_seq] must be [>= 0]. *)

val on_feedback : t -> hop_seq:int -> unit
(** Process a feedback message from the successor: frees the window
    slot, samples the RTT (unless the cell was retransmitted) and
    drives the controller.  Unknown or duplicate sequence numbers are
    counted and otherwise ignored. *)

val controller : t -> Circuitstart.Controller.t
val cwnd : t -> int
val inflight : t -> int
val queue_length : t -> int
(** Cells submitted but not yet transmitted (local backlog, not the
    link queue). *)

val cells_sent : t -> int
(** First transmissions (excludes retransmissions). *)

val retransmissions : t -> int
val spurious_feedback : t -> int
(** Feedbacks that matched no in-flight cell.  Test-only: a counter accessor that ROADMAP item 4's probes replace. *)

val feedback_received : t -> int
(** Feedbacks that matched an in-flight cell (excludes spurious).  For
    a sender that was never aborted,
    [cells_sent = feedback_received + inflight + queue-drop losses
    still awaiting retransmission] — the per-hop conservation law the
    invariant oracles check at feedback instants and at end of run. *)

val next_hop_seq : t -> int
(** The sequence number the next submitted cell will take; every
    feedback must name a sequence strictly below it. *)

val idle : t -> bool
(** No backlog and nothing in flight. *)

val srtt : t -> Engine.Time.t option
(** Smoothed RTT estimate, once at least one sample exists.  Test-only: an accessor that ROADMAP item 4's probes replace. *)

(** {1 Failure} *)

val aborted : t -> bool
(** Whether the sender is in its terminal state.  An aborted sender
    ignores {!submit}, {!on_feedback} and all pending timers. *)

val abort : t -> unit
(** Kill the sender silently (no callback): cancel every pending
    retransmission timer and drop backlog and in-flight state.  Used
    by the owner to tear down the remaining hops of a failed circuit.
    Idempotent. *)

val set_on_abort : t -> (unit -> unit) -> unit
(** [f] fires once, at the instant the sender trips its own
    retransmission budget (not on an external {!abort}). *)

(** {1 Invariant probes}

    Passive observation points for the [Check] oracles.  A probe must
    not call back into the sender or the simulation: it only records. *)

type probe_event =
  | Wire_departure of {
      pkt_id : int;  (** id of the departing packet *)
      in_use : bool;  (** was the pending record live when it fired? *)
      wire_floor : int;  (** the record's incarnation watermark *)
      applied : bool;  (** did the sender act on the callback? *)
    }
      (** A wire-departure callback reached the sender.  The checked
          incarnation law: [applied] implies
          [in_use && pkt_id >= wire_floor] — acting on a stale or
          pooled-record callback is the PR-4 recycling bug. *)
  | Feedback of {
      hop_seq : int;
      next_hop_seq : int;  (** sender's next unassigned sequence *)
      known : bool;  (** did it match an in-flight cell? *)
    }
      (** A feedback message arrived (before it is processed).  The
          checked law: [hop_seq < next_hop_seq] — feedback must never
          name a cell that was never sent. *)

val set_probe : t -> (probe_event -> unit) option -> unit
(** Install (or remove) the probe.  Costs one [match] per wire
    departure / feedback when unset. *)

(**/**)

val unsafe_disable_wire_floor : bool ref
(** Test-only fault injection: while [true], wire-departure callbacks
    are applied to any live pending record regardless of its
    incarnation watermark, re-creating the stale-[on_transmit] bug the
    watermark exists to stop.  The harness flips it to prove the
    incarnation oracle catches the bug.  Never set in real runs. *)
