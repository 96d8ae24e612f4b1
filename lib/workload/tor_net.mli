(** Assembled star overlays: topology + routing + per-node machinery.

    Two-phase construction, because routes are computed once over the
    finished graph: declare every participant on a {!builder}, then
    {!finalize}.  Declaring a leaf takes constant time, and finalizing
    a star of n nodes O(n log n) time and O(n) words: only the hub
    keeps a routing row (see {!Netsim.Network}).  Finalization creates the {!Netsim.Network.t}, one
    {!Tor_model.Switchboard.t} per leaf, a {!Tor_model.Relay_ctl.t}
    on every leaf (so any node can take part in circuit
    establishment), a {!Backtap.Node.t} on every leaf, and a
    {!Tor_model.Directory.t} of the declared relays. *)

type builder
type t

val builder : Engine.Sim.t -> ?queue:Netsim.Nqueue.capacity -> unit -> builder
(** Start a star around a hub.  [queue] is the per-link queue capacity
    (default unbounded — congestion shows up as delay, which is what
    delay-based control observes). *)

val add_relay : builder -> Relay_gen.spec -> unit
(** Declare a relay leaf. *)

val add_endpoint :
  ?name:string ->
  builder ->
  rate:Engine.Units.Rate.t ->
  delay:Engine.Time.t ->
  Netsim.Node_id.t
(** Declare a client or server leaf; returns its node id (valid after
    finalization too).  Nodes carry no names: [name] is ignored, and
    stays only because perfbench's set-up code still passes one (ROADMAP
    item 10). *)

val finalize : builder -> t
(** Build routes and install all per-node machinery.  The builder must
    not be reused afterwards (raises [Invalid_argument]). *)

(** {1 Access} *)

val network : t -> Netsim.Network.t
val directory : t -> Tor_model.Directory.t
val hub : t -> Netsim.Node_id.t

(** The lookups below read one node-indexed array: constant time,
    whatever the number of leaves. *)

val switchboard : t -> Netsim.Node_id.t -> Tor_model.Switchboard.t
(** Raises [Not_found] for the hub or unknown nodes. *)

val backtap_node : t -> Netsim.Node_id.t -> Backtap.Node.t
(** Raises [Not_found] likewise. *)

val relay_ctl : t -> Netsim.Node_id.t -> Tor_model.Relay_ctl.t
(** Raises [Not_found] likewise. *)

val access_spec : t -> Netsim.Node_id.t -> Optmodel.Path_model.node_spec
(** The declared rate/delay of a leaf.  Raises [Not_found] for the
    hub or unknown nodes. *)

val path_model : t -> Tor_model.Circuit.t -> Optmodel.Path_model.t
(** Analytic path description of a circuit over this network. *)

val circuit_ids : t -> Tor_model.Circuit_id.gen
(** The network-wide circuit id generator. *)
