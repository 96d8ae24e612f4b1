(** Legacy Tor end-to-end flow control (the "vanilla Tor" baseline).

    Tor without a tailored transport has no per-hop congestion control:
    the client may have [circuit_window] cells in flight end-to-end
    (1000), plus a per-stream window (500); the far end returns a
    SENDME credit for every [circuit_increment] (100) delivered cells
    (and per [stream_increment] (50) for the stream window).  Relays
    forward cells as fast as their links drain — queueing is unbounded
    and invisible to the sender.  This is the scheme whose startup and
    queueing behaviour the tailored transports (BackTap, CircuitStart)
    improve on; the comparison appears in the extra table T1. *)

type config = {
  circuit_window : int;  (** Initial circuit-level credit, cells. *)
  stream_window : int;  (** Initial stream-level credit, cells. *)
  circuit_increment : int;  (** Cells per circuit-level SENDME. *)
  stream_increment : int;  (** Cells per stream-level SENDME. *)
}

type t

val deploy :
  sb_of:(Netsim.Node_id.t -> Switchboard.t) ->
  circuit:Circuit.t ->
  bytes:int ->
  ?config:config ->
  ?stream_id:int ->
  unit ->
  t
(** Install forwarding handlers for [circuit] on every node's
    switchboard and prepare a [bytes]-byte transfer.  Nothing is sent
    until {!start}.  [sb_of] must return the (single) switchboard of
    each node on the path.  [config] defaults to Tor's classic values
    (1000 / 500 / 100 / 50).  Raises [Invalid_argument] if a window is
    below 1 or an increment is outside [\[1, window\]]. *)

val start : t -> unit
(** Begin transmitting.  Raises [Invalid_argument] if called twice. *)

val complete : t -> bool

val time_to_last_byte : t -> Engine.Time.t option
(** Time from the first cell sent to the last byte delivered. *)

val sink : t -> Stream.Sink.t

val cell_latency_stats : t -> Engine.Stats.Online.t
(** End-to-end per-cell latency: client send decision to server
    delivery (the client's own queueing counts — legacy Tor inflicts
    it). *)

val client_credit : t -> int
(** Remaining end-to-end credit (min of circuit and stream credit).
    Test-only: an accessor that ROADMAP item 4's probes replace. *)

val sendmes_received : t -> int
(** Test-only: a counter accessor that ROADMAP item 4's probes replace. *)
