(** Per-node cell dispatch.

    Every overlay participant (client, relay, server) owns one
    switchboard bound to its node's local delivery slot.  Incoming
    cells are dispatched by circuit id to the handler registered for
    that circuit; cells on unknown circuits (e.g. an incoming CREATE)
    go to the control handler; non-cell payloads (e.g. BackTap feedback
    messages) go to the auxiliary handler.  Transports register and
    tear down circuit handlers as circuits come and go.

    A switchboard can be marked {e down} ({!set_down}) to model a
    crashed relay: every arriving packet is black-holed and every send
    refused, without touching the handlers — so a later restart
    ([set_down t false]) resumes dispatch where it left off. *)

type t

type handler = from:Netsim.Node_id.t -> Cell.t -> unit
(** [from] is the overlay neighbour that sent the cell (the packet's
    source node). *)

val install : Netsim.Network.t -> Netsim.Node_id.t -> t
(** Claim the node's local-handler slot.  At most one switchboard per
    node; installing a second one replaces the first's delivery. *)

val node : t -> Netsim.Node_id.t
val network : t -> Netsim.Network.t

val register_circuit : t -> Circuit_id.t -> handler -> unit
(** Raises [Invalid_argument] if the circuit already has a handler
    here. *)

val unregister_circuit : t -> Circuit_id.t -> unit
(** No-op if not registered. *)

val set_control_handler : t -> handler -> unit
(** Receives cells whose circuit has no registered handler. *)

val set_aux_handler : t -> (Netsim.Packet.t -> unit) -> unit
(** Receives non-cell packets addressed to this node. *)

val send_cell : t -> dst:Netsim.Node_id.t -> Cell.t -> unit
(** Wrap a cell in a {!Cell.size}-byte packet and inject it. *)

val send_payload :
  t ->
  ?on_transmit:(int -> unit) ->
  dst:Netsim.Node_id.t ->
  size:int ->
  Netsim.Payload.t ->
  unit
(** Send an arbitrary payload (feedback messages etc.).
    [on_transmit] fires, with the packet's id, when this node's access
    link starts serializing the packet (see {!Netsim.Network.send}). *)

val orphan_cells : t -> int
(** Cells that found neither a circuit nor a control handler.
    Test-only: a counter accessor that ROADMAP item 4's probes replace. *)

(** {1 Crash injection} *)

val set_down : t -> bool -> unit
(** [set_down t true] models a node crash: incoming packets are
    black-holed (counted) and outgoing sends are silently refused —
    for senders, indistinguishable from loss, which is exactly what a
    crashed relay looks like from one hop away.  [set_down t false]
    restarts the node. *)

val is_down : t -> bool
(** Test-only: a state accessor that ROADMAP item 4's probes replace. *)

val blackholed_cells : t -> int
(** Packets that arrived while the node was down. *)

val refused_sends : t -> int
(** Sends attempted while the node was down.  Test-only: a counter accessor that ROADMAP item 4's probes replace. *)

(** {1 Resource accounting}

    Per-relay budgets over the data-plane bytes held at this node
    (backlog plus in-flight cells, across all circuits routed through
    it) and the number of circuits in the routing table.  The byte
    counters live here so the forwarding hot path can charge and
    credit without knowing about the control plane; enforcement — the
    admission refusals and the OOM responder — lives in
    {!Relay_ctl}, wired through the hooks below. *)

type budget = {
  max_circuits : int option;  (** Routing-entry cap; [None] = unlimited. *)
  max_queued_bytes : int option;  (** Byte-occupancy cap; [None] = unlimited. *)
}

val no_budget : budget
(** Both caps off — the default for every freshly installed node. *)

val within_budget : budget -> circuits:int -> queued_bytes:int -> bool
(** The pure admission predicate: would a relay holding [circuits]
    routing entries and [queued_bytes] bytes of queued cells admit one
    more circuit under [budget]?  ([circuits] strictly below the cap,
    [queued_bytes] at most the cap.)  Shared by {!Relay_ctl} admission
    and by consensus-scale workloads that track occupancy in flat
    counters instead of live switchboards. *)

val set_budget : t -> budget -> unit
val budget : t -> budget

val charge : t -> Circuit_id.t -> int -> unit
(** Account [bytes] against [circuit].  Allocation-free in steady
    state (the per-circuit counter is created on first charge).  When
    the charge lifts the total above [max_queued_bytes], the overflow
    hook fires synchronously (unless {!unsafe_disable_budget}). *)

val credit : t -> Circuit_id.t -> int -> unit
(** Release [bytes] previously charged to [circuit]. *)

val drop_circuit_occupancy : t -> Circuit_id.t -> unit
(** Forget [circuit]'s counter entirely (teardown); its remaining
    bytes leave the total. *)

val queued_bytes : t -> int
(** Total charged bytes across all circuits. *)

val circuit_queued_bytes : t -> Circuit_id.t -> int

val byte_high_watermark : t -> int
(** Highest [queued_bytes] ever observed. *)

val byte_overloaded : t -> bool
(** Whether [queued_bytes] currently exceeds [max_queued_bytes]. *)

val heaviest_circuit : t -> Circuit_id.t option
(** The circuit with the most charged bytes — the OOM responder's
    victim.  Ties break towards the smallest circuit id, so the choice
    does not depend on hash iteration order. *)

val set_on_overflow : t -> (unit -> unit) -> unit
(** [f] fires synchronously whenever a {!charge} leaves the node over
    its byte budget ({!Relay_ctl} installs the OOM responder here). *)

val set_on_byte_overload : t -> (bool -> unit) -> unit
(** [f over] fires on each transition of {!byte_overloaded}. *)

val set_data_kill : t -> (Circuit_id.t -> unit) -> unit
(** Install the data-plane kill switch: [f circuit] must abort this
    node's sender for [circuit], crediting its bytes back.  Installed
    by [Backtap.Node], invoked by {!Relay_ctl}'s OOM responder —
    the indirection keeps the control plane free of a data-plane
    dependency. *)

val kill_data : t -> Circuit_id.t -> unit
(** Invoke the kill switch (no-op if none installed). *)

(**/**)

val unsafe_disable_budget : bool ref
(** Test-only fault injection: while [true], byte accounting continues
    but enforcement (the overflow hook here, admission refusals in
    {!Relay_ctl}) is suppressed, letting occupancy exceed the budget —
    the regression the budget oracle exists to catch.  Never set in
    real runs. *)
