(** Routed packet delivery over a topology.

    [Network] computes static shortest-path routes (Dijkstra over link
    propagation delay, hop count as tie-breaker), installs forwarding
    handlers on every link, and exposes node-to-node [send].  A packet
    travels link by link through intermediate nodes (e.g. the star hub)
    and is handed to the destination's local handler on arrival.

    Routes are computed when the network is built; the topology must be
    fully wired first.  This matches the experiments, whose graphs are
    static.

    Forwarding state is linear in the node count on a star.  A node
    with exactly one out-link whose far end has two or more (a star's
    leaf) reaches every other node through that link, so it keeps no
    row: its route to [d] is the link when the neighbour is [d] or
    routes to [d], and there is none otherwise.  Every other node (of
    out-degree 0 or at least 2, or a single-link node facing another
    single-link node) runs Dijkstra and keeps a row of n links.  In a
    star only the hub does, so building the network costs O(n log n)
    time and O(n) words, and forwarding a packet is at most three
    array reads and allocates nothing. *)

type t

val create : Topology.t -> t
(** Route and claim every link's receiver slot.  One Dijkstra pass and
    one row of n links per node that keeps a row (see above): O(n log
    n) time and O(n) words on a star, where only the hub keeps one. *)

val topology : t -> Topology.t
val sim : t -> Engine.Sim.t

val set_local_handler : t -> Node_id.t -> (Packet.t -> unit) -> unit
(** [set_local_handler net n f] makes [f] receive every packet whose
    final destination is [n].  Without a handler such packets count as
    {!undeliverable}. *)

val make_packet :
  t -> src:Node_id.t -> dst:Node_id.t -> size:int -> Payload.t -> Packet.t
(** Fresh packet stamped with the current simulation time. *)

val next_packet_id : t -> int
(** The id the next {!make_packet} will assign (see
    {!Packet.next_id}): a monotone watermark separating packets
    already created from packets not yet created. *)

val send : t -> ?on_transmit:(int -> unit) -> Packet.t -> unit
(** Inject a packet at its source node.  [on_transmit] fires, with the
    packet's id, when the packet's serialization on the source's own
    access link starts — the node's true "on the wire" instant (later
    forwarding hops do not re-fire it); see {!Link.send} for the
    staleness caveat on queued packets.  Raises [Failure] if the
    destination is unreachable from the source. *)

val path : t -> Node_id.t -> Node_id.t -> Node_id.t list option
(** [path net a b] is the node sequence [a; ...; b] a packet follows,
    or [None] if unreachable.  [path net a a = Some [a]].  Test
    reference: the routing tests compare every route with a frozen
    Dijkstra through it. *)

val undeliverable : t -> int
(** Packets that reached a node with no local handler.  Test-only: a counter accessor that ROADMAP item 4's probes replace. *)
