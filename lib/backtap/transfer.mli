(** A fixed-size transfer over one circuit, relayed hop-by-hop with
    BackTap and a pluggable startup strategy.

    Deployment wires every node on the path:

    - the {b client} owns a {!Hop_sender} towards the guard and feeds
      it the whole transfer (the window, not the application, paces the
      wire); its ack stamps each cell's wire departure, for
      {!cell_latency_stats};
    - each {b relay} owns a sender towards its successor; an incoming
      cell is peeled one onion layer and forwarded, and the sender's
      ack emits the BackTap feedback to the predecessor at the
      forwarding instant;
    - the {b server} delivers exposed cells to the sink and emits
      feedback immediately (delivery is its act of forwarding).

    Every hop runs its own controller instance with the same strategy
    and parameters — the paper's backpropagation is an emergent
    property of this arrangement, which {!sender_at} lets tests
    observe hop by hop. *)

type t

type state =
  | Running
  | Completed  (** Every stream's sink has every byte. *)
  | Failed
      (** A hop sender exhausted its retransmission budget: the circuit
          is dead, all hop state has been torn down.  Terminal. *)

val deploy :
  node_of:(Netsim.Node_id.t -> Node.t) ->
  circuit:Tor_model.Circuit.t ->
  bytes:int ->
  strategy:Circuitstart.Controller.strategy ->
  ?params:Circuitstart.Params.t ->
  ?trace:Engine.Trace.t * string ->
  ?rto_min:Engine.Time.t ->
  ?rto_initial:Engine.Time.t ->
  ?max_retries:int ->
  ?stream_id:int ->
  ?offset:int ->
  ?on_complete:(Engine.Time.t -> unit) ->
  ?on_fail:(Engine.Time.t -> unit) ->
  unit ->
  t
(** Prepare (but do not start) a [bytes]-byte transfer.  [offset]
    (default 0) resumes from that byte: the first [offset] bytes are
    treated as already delivered by a previous circuit generation, so
    only the remainder crosses the wire (see {!Tor_model.Stream} for
    the cell-alignment requirement).  [node_of] must
    return the BackTap node state of every node on the path.  With
    [trace = (registry, prefix)], a circuit failure is recorded as an
    {!Engine.Trace.Abort} event under [prefix]; {!trace_cwnd} also
    records the windows.
    [rto_min], [rto_initial] and [max_retries] are handed to every
    {!Hop_sender} (see {!Hop_sender.create} for defaults); together
    they bound how long a dead successor can stall the circuit before
    it fails.  [on_complete] fires once when the sink has every byte;
    [on_fail] fires once if the circuit fails instead.  The two are
    mutually exclusive. *)

val deploy_streams :
  node_of:(Netsim.Node_id.t -> Node.t) ->
  circuit:Tor_model.Circuit.t ->
  streams:(int * int) list ->
  strategy:Circuitstart.Controller.strategy ->
  ?params:Circuitstart.Params.t ->
  ?trace:Engine.Trace.t * string ->
  ?rto_min:Engine.Time.t ->
  ?rto_initial:Engine.Time.t ->
  ?max_retries:int ->
  ?offsets:(int * int) list ->
  ?on_complete:(Engine.Time.t -> unit) ->
  ?on_fail:(Engine.Time.t -> unit) ->
  unit ->
  t
(** Multiplex several application streams over one circuit, as Tor
    does: [streams] is a list of [(stream_id, bytes)] with distinct
    ids; their cells interleave round-robin at the client (Tor's cell
    scheduler), share every hop window, and are demultiplexed to
    per-stream sinks at the server.  [offsets] maps stream ids to
    resume offsets (missing streams start at byte 0).  [on_complete]
    fires when the last stream finishes.  Raises [Invalid_argument] on
    an empty list, duplicate ids, or an offset for an unknown
    stream. *)

val start : t -> unit
(** Inject the transfer at the client.  Raises [Invalid_argument] if
    called twice. *)

val circuit : t -> Tor_model.Circuit.t
val complete : t -> bool
val first_sent_at : t -> Engine.Time.t option

val state : t -> state

val failed : t -> bool
(** The circuit died before completing. *)

val failed_at : t -> Engine.Time.t option
(** When the circuit failed ([None] unless {!failed}). *)

val failed_hop : t -> int option
(** The path position (0 = client) whose sender tripped the failure. *)

val completed_at : t -> Engine.Time.t option
(** When the last byte of the *last* stream arrived ([None] until every
    stream is complete). *)

val time_to_last_byte : t -> Engine.Time.t option
(** [completed_at - first_sent_at]; [None] until complete. *)

val delivered_bytes : t -> int
(** Sum over streams of the contiguous delivered prefix at the sink
    (each counting its resume offset).  Unlike raw received bytes it
    never counts cells beyond a hole, so after a failure it is the safe
    offset set for the next circuit generation.  Stays readable after
    {!teardown}. *)

val sink : t -> Tor_model.Stream.Sink.t
(** The first stream's sink (the only one for {!deploy}). *)

val stream_sink : t -> int -> Tor_model.Stream.Sink.t option
(** A specific stream's sink, by id.  Test-only: the multi-stream
    tests read each stream's bytes through it (ROADMAP item 4). *)

val stream_completed_at : t -> int -> Engine.Time.t option
(** When that stream's last byte arrived. *)

val stream_ids : t -> int list
(** The transfer's stream ids, ascending.  Test-only, like
    {!stream_sink}. *)

val sender_at : t -> int -> Hop_sender.t option
(** The hop sender at path position [i] (0 = client); [None] for the
    server position or out of range. *)

val senders : t -> Hop_sender.t list
(** All hop senders, client first. *)

val trace_cwnd : t -> Engine.Trace.t * string -> unit
(** [trace_cwnd t (registry, prefix)] records each hop's window as
    series ["<prefix>/cwnd/<position>"] in cells (position 0 = client),
    starting with a point at the current instant.  Call it before
    {!start} for the whole trajectory.  It is passive, and its own
    call: a series point per window change is worth paying for only
    where the windows are read. *)

val cell_latency_stats : t -> Engine.Stats.Online.t
(** End-to-end per-cell latency samples: client wire departure to
    server delivery (duplicates from retransmission sample once, at
    first delivery).  This is the interactivity metric — it exposes
    queueing along the whole circuit. *)

val total_retransmissions : t -> int

val teardown : t -> unit
(** Unregister the circuit's flows at every node. *)
