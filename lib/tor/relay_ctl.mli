(** The relay-side control-plane automaton.

    Handles circuit lifecycle cells (CREATE/EXTEND/DESTROY) arriving at
    a relay or at the server endpoint, maintaining the per-circuit
    routing entry (predecessor, successor) that the data-plane
    transports consult:

    - CREATE from a predecessor: admit or refuse under the node's
      resource budget; if admitted, record the circuit and answer
      CREATED, else answer a typed REFUSED (busy) and keep no state.
    - EXTEND from the predecessor: if this relay already has a
      successor for the circuit, forward the EXTEND onwards (it is
      addressed to the current end of the circuit); otherwise adopt the
      target as successor and send it CREATE.
    - CREATED from the successor: answer EXTENDED to the predecessor.
    - EXTENDED from the successor: forward it to the predecessor.
    - REFUSED from the successor: the target never joined the circuit —
      roll the entry back to end-of-circuit and pass the refusal
      towards the client, so a refused extension leaves zero orphaned
      routing state anywhere.
    - DESTROY: drop the entry and propagate away from the sender.

    This gives circuit establishment its real cost: extending to hop
    [k] takes a round trip through [k] hops.

    {2 Overload protection}

    When the owning {!Switchboard} carries a {!Switchboard.budget},
    this automaton enforces it: CREATEs beyond [max_circuits] or while
    byte-overloaded are refused (admission control), and a byte-budget
    overflow mid-flight triggers the OOM responder — Tor's
    [circuits_handle_oom] analog — which destroys the heaviest
    circuits until the node is back under budget, aborting the local
    data-plane sender through the switchboard's kill switch and
    DESTROYing towards both neighbours.  Transitions in and out of the
    overloaded state, refusals and OOM kills are recorded in the
    attached {!Engine.Trace.t} (kinds [Overload_enter]/[Overload_exit],
    [Refused], [Oom_kill]). *)

type t

type entry = {
  prev : Netsim.Node_id.t;
  next : Netsim.Node_id.t option;  (** [None] while this is the end. *)
}

val create : Switchboard.t -> t
(** Installs itself as the switchboard's control handler and wires the
    budget-enforcement hooks (inert until a budget is set). *)

val route : t -> Circuit_id.t -> entry option
(** The routing entry, if the circuit is known here. *)

val circuits : t -> Circuit_id.t list
(** Known circuits, sorted.  Test-only: a state accessor that ROADMAP
    item 4's probes replace. *)

val destroyed : t -> int
(** DESTROY cells processed.  Test-only: a counter accessor that
    ROADMAP item 4's probes replace. *)

(** {1 Resource budgets} *)

val set_budget : t -> Switchboard.budget -> unit
(** Convenience for [Switchboard.set_budget] on the owning
    switchboard. *)

val switchboard : t -> Switchboard.t

val admitted : t -> int
(** CREATEs accepted. *)

val refusals : t -> int
(** CREATEs refused under admission control. *)

val oom_kills : t -> int
(** Circuits destroyed by the OOM responder. *)

val overload_enters : t -> int
(** Transitions into the overloaded state. *)

val set_trace : t -> Engine.Trace.t * string -> unit
(** Record refusals, OOM kills and overload transitions under the
    given subject. *)

(** {1 Invariant probes} *)

type probe_event =
  | Refused_build of Circuit_id.t
      (** A CREATE for this circuit was refused here. *)
  | Oom_killed of Circuit_id.t
      (** This circuit was destroyed by the OOM responder here. *)

val set_probe : t -> (probe_event -> unit) option -> unit
(** Passive observer for the [Check] oracles; must not call back into
    the simulation. *)

(** {1 Crash injection} *)

val crash : t -> unit
(** Kill the relay: the data-plane sender of every routed circuit is
    aborted ({!Switchboard.kill_data}, crediting its bytes back), every
    circuit routing entry is lost and the switchboard is taken down
    (incoming cells black-holed, outgoing sends refused).  No DESTROY
    cells are emitted — a crashed relay disappears silently; its
    neighbours discover the failure through their own retransmission
    timeouts. *)

val crashes : t -> int
(** Crashes injected so far.  Test-only: a counter accessor that
    ROADMAP item 4's probes replace. *)
