(** Node-and-link graphs.

    A topology owns its simulator handle, its nodes and its directed
    links (a duplex connection is two symmetric directed links).  It is
    the single source of packet ids for everything running on it, so a
    whole run has densely numbered, reproducible packets.  Its links
    share one {!Link.flight_pool}, so the propagation records of the
    whole network number at most its peak of packets in flight.

    Builders for the shapes used in the paper's evaluation (line and
    star) live here; the random relay networks are composed on top by
    the [workload] library. *)

type t

val create : Engine.Sim.t -> t
val sim : t -> Engine.Sim.t
val packet_ids : t -> Packet.id_state

val add_node : t -> name:string -> Node_id.t
(** Add a node; ids are dense in creation order.  Node names are for
    diagnostics only and need not be unique. *)

val node_count : t -> int
val nodes : t -> Node_id.t list
(** All node ids, in creation order. *)

val name : t -> Node_id.t -> string
(** Raises [Not_found] for an unknown id. *)

val connect :
  t ->
  Node_id.t ->
  Node_id.t ->
  rate:Engine.Units.Rate.t ->
  delay:Engine.Time.t ->
  ?queue:Nqueue.capacity ->
  unit ->
  unit
(** [connect t a b ~rate ~delay ()] creates the duplex pair of directed
    links [a->b] and [b->a], both with the given rate, one-way
    propagation delay and queue capacity.  Raises [Invalid_argument] if
    either node is unknown, if [a = b], or if the pair is already
    connected. *)

val link : t -> Node_id.t -> Node_id.t -> Link.t option
(** The directed link [a->b], if connected.  A hash lookup, so its
    cost does not grow with [a]'s out-degree (nor does the duplicate
    check of {!connect}). *)

val neighbors : t -> Node_id.t -> Node_id.t list
(** Nodes reachable over one outgoing link, in connection order. *)

val out_links : t -> Node_id.t -> Link.t array
(** The outgoing links of a node, in connection order.  When the
    node's storage has no spare capacity — always for a node with one
    out-link, such as a leaf of a star — this is the topology's own
    array and allocates nothing; otherwise it is a copy.  Callers must
    not mutate it.  Raises [Invalid_argument] for an unknown node. *)

val links : t -> Link.t array
(** All directed links.  The order is deterministic for a given
    sequence of {!connect} calls (it is neither connection order nor
    node order); per-link random draws and float sums over links depend
    on it.  The array is built on the first call after a connection and
    kept: later calls return the same array and allocate nothing.
    Callers must not mutate it. *)

(** {1 Builders} *)

val line :
  Engine.Sim.t ->
  names:string list ->
  rate:Engine.Units.Rate.t ->
  delay:Engine.Time.t ->
  ?queue:Nqueue.capacity ->
  unit ->
  t * Node_id.t list
(** A chain of nodes with uniform duplex links.  Raises
    [Invalid_argument] if fewer than two names are given. *)

val star :
  Engine.Sim.t ->
  hub:string ->
  leaves:(string * Engine.Units.Rate.t * Engine.Time.t) list ->
  ?queue:Nqueue.capacity ->
  unit ->
  t * Node_id.t * Node_id.t list
(** [star sim ~hub ~leaves ()] is the paper's topology: every leaf hangs
    off a central hub by a dedicated duplex access link whose rate *is*
    the leaf's bandwidth and whose one-way delay is the leaf's access
    latency.  Returns (topology, hub id, leaf ids in list order).
    Raises [Invalid_argument] on an empty leaf list. *)
