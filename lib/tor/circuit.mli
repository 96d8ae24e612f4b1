(** Circuits: a client, an ordered relay path, and a destination.

    The node sequence [client; relay_1; ...; relay_k; server] is the
    data path; each adjacent pair is one *hop* of the hop-by-hop
    transport.  The server is modelled as the final hop's endpoint (in
    real Tor the exit's TCP connection to the destination), so window
    mechanics cover the exit→server leg too. *)

type t = private {
  id : Circuit_id.t;
  client : Netsim.Node_id.t;
  relays : Relay_info.t list;  (** In path order, guard first. *)
  server : Netsim.Node_id.t;
}

val make :
  id:Circuit_id.t ->
  client:Netsim.Node_id.t ->
  relays:Relay_info.t list ->
  server:Netsim.Node_id.t ->
  t
(** Raises [Invalid_argument] if [relays] is empty or the node sequence
    contains duplicates. *)

val nodes : t -> Netsim.Node_id.t list
(** [client :: relay nodes @ [server]]. *)

val hop_count : t -> int
(** Number of hops = [List.length (nodes t) - 1]. *)

val layer_count : t -> int
(** Onion layers a client data cell carries = number of peeling nodes
    = [List.length relays]. *)

val successor : t -> Netsim.Node_id.t -> Netsim.Node_id.t option
(** Next node towards the server; [None] for the server or unknown
    nodes. *)

val predecessor : t -> Netsim.Node_id.t -> Netsim.Node_id.t option
(** Previous node towards the client. *)

val pp : Format.formatter -> t -> unit
