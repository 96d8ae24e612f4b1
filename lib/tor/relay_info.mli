(** Relay descriptors.

    What the directory knows about a relay: its nickname, the node it
    runs on, its advertised bandwidth (= its star access-link rate) and
    access latency, and its position flags.  Mirrors the fields of a
    Tor router descriptor that matter to path selection. *)

type flag = Guard | Exit | Fast | Stable

type t = {
  nickname : string;
  node : Netsim.Node_id.t;
  bandwidth : Engine.Units.Rate.t;
  latency : Engine.Time.t;  (** One-way access-link propagation delay. *)
  flags : flag list;
}

val make :
  nickname:string ->
  node:Netsim.Node_id.t ->
  bandwidth:Engine.Units.Rate.t ->
  latency:Engine.Time.t ->
  ?flags:flag list ->
  unit ->
  t
(** [flags] defaults to [[Guard; Exit; Fast; Stable]] (every position
    allowed), which is what the paper's random networks use. *)

val has_flag : t -> flag -> bool
val pp : Format.formatter -> t -> unit
