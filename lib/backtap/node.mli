(** Per-node BackTap dispatch.

    One [Node.t] per network node running BackTap.  It claims the
    switchboard's auxiliary handler and routes incoming hop envelopes
    and feedback messages to the per-circuit flow registered by a
    deployment.  Several circuits (deployments) share one node. *)

type t

type flow = {
  on_cell : from:Netsim.Node_id.t -> hop_seq:int -> Tor_model.Cell.t -> unit;
      (** A cell arrived from a neighbouring hop. *)
  on_feedback : hop_seq:int -> unit;
      (** Feedback from this node's successor on that circuit. *)
}

val install : Tor_model.Switchboard.t -> t
(** Claims the switchboard's aux-handler slot, and the data-kill slot:
    when the control plane's OOM responder sheds a circuit
    ([Tor_model.Switchboard.kill_data]), the kill switch registered
    here with {!set_kill} fires (a no-op if none is registered). *)

val switchboard : t -> Tor_model.Switchboard.t

val register_flow : t -> Tor_model.Circuit_id.t -> flow -> unit
(** Raises [Invalid_argument] if the circuit already has a flow
    here. *)

val set_kill : t -> Tor_model.Circuit_id.t -> (unit -> unit) -> unit
(** Register (or replace) the circuit's data-plane kill switch: called
    when the local relay OOM-kills the circuit, it must drop the
    circuit's queued bytes immediately (typically [Hop_sender.abort]).
    Removed together with the flow by {!unregister_flow}. *)

val unregister_flow : t -> Tor_model.Circuit_id.t -> unit
(** Removes the circuit's flow and its kill switch, if any. *)

val orphan_messages : t -> int
(** Envelopes or feedback for circuits with no registered flow.
    Test-only: a counter accessor that ROADMAP item 4's probes replace. *)
