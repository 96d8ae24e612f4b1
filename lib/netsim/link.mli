(** Unidirectional point-to-point link.

    Models the three delays of a real wire: queueing (in a drop-tail
    {!Nqueue}), serialization (packet size / link rate) and propagation
    (fixed).  The transmitter serializes one packet at a time;
    back-to-back packets leave the wire exactly one serialization time
    apart, which is what turns a window burst into the "packet train"
    CircuitStart analyses.

    Delivery invokes the receiver callback installed with
    {!set_receiver}; a link with no receiver black-holes (counted).

    Links are the substrate for fault injection: a {e fault filter}
    ({!set_fault_filter}) can lose any packet at the end of its
    serialization — the wire's capacity is consumed, the bits are not
    delivered — and the link can be taken down outright ({!set_up}),
    which rejects new packets at the transmitter and kills packets
    caught in flight.  Every lost packet is attributed to exactly one
    {!drop_counts} bucket so experiments can tell congestion from
    injected faults. *)

type t

type drop_counts = {
  queue_full : int;  (** Tail drops on the egress queue. *)
  fault_injected : int;  (** Lost by the fault filter (in-flight loss). *)
  outage : int;  (** Rejected or killed while the link was down. *)
}

type flight_pool
(** Reusable propagation records.  A packet past serialization rides a
    pooled record — one preallocated {!Engine.Sim.Timer} bound to a
    (link, packet) pair — until it lands at the receiver, where the
    record returns to the pool.  Links that share a pool (every link of
    a {!Topology} does) share its records, so the pool grows to the
    peak number of packets in flight across all of them at once, and
    propagation allocates nothing after that. *)

val flight_pool : Engine.Sim.t -> flight_pool
(** An empty pool for links running on this simulation. *)

val flight_records : flight_pool -> int
(** Records the pool has ever created: the peak number of packets that
    were propagating at one time on its links.  Test-only: a counter accessor that ROADMAP item 4's probes replace. *)

val create :
  Engine.Sim.t ->
  src:Node_id.t ->
  dst:Node_id.t ->
  rate:Engine.Units.Rate.t ->
  delay:Engine.Time.t ->
  ?queue:Nqueue.capacity ->
  ?flights:flight_pool ->
  unit ->
  t
(** [create sim ~src ~dst ~rate ~delay ()] is an idle link.  [queue]
    defaults to {!Nqueue.unbounded}; [flights] defaults to a pool of
    the link's own.  Raises [Invalid_argument] on a negative [delay]. *)

val src : t -> Node_id.t
val dst : t -> Node_id.t
val rate : t -> Engine.Units.Rate.t
(** Test reference: the rate-schedule tests read a link's rate back. *)

val delay : t -> Engine.Time.t

val set_rate : t -> Engine.Units.Rate.t -> unit
(** Change the link rate at runtime (takes effect from the next
    serialization; the packet currently on the wire is unaffected).
    Models capacity changes for the adaptive experiments. *)

val set_receiver : t -> (Packet.t -> unit) -> unit
(** Install the handler run (at the destination) when a packet arrives. *)

val set_fault_filter : t -> (Packet.t -> bool) option -> unit
(** [set_fault_filter t (Some drop)] makes the link consult [drop]
    once per packet, at the end of its serialization; [true] loses the
    packet (counted in {!fault_drops}).  [None] removes the filter.
    {!Faults} builds the standard loss models on top of this hook. *)

val set_up : t -> bool -> unit
(** Take the link down or bring it back up.  While down, {!send}
    rejects packets at the transmitter (no [on_transmit], counted as
    outage drops) and any packet whose serialization completes is
    killed instead of delivered.  Links start up. *)

val is_up : t -> bool
(** Test-only: a state accessor that ROADMAP item 4's probes replace. *)

val send : t -> ?on_transmit:(int -> unit) -> Packet.t -> unit
(** Hand a packet to the transmitter.  If the link is down the packet
    is dropped (counted in {!outage_drops}).  If the transmitter is
    busy the packet queues; if the queue is full it is dropped (the
    drop is visible in {!queue_drops}).  [on_transmit] fires at the
    instant the packet's serialization starts — when it is truly on
    the wire — and receives the packet's id, so a caller reusing one
    closure across many sends can tell which packet fired it (packet
    ids are monotone, which makes the id usable as a staleness
    watermark).  The callback waits in the packet's queue slot and
    fires at most once.  It never fires for a dropped packet, but it
    cannot be withdrawn while its packet is queued — a caller that
    loses interest in a queued packet must be prepared to receive (and
    ignore) a late firing. *)

val busy : t -> bool
(** Whether a packet is currently being serialized. *)

val queue_length : t -> int
val queue_drops : t -> int

val queue_high_watermark_bytes : t -> int
(** Largest queue occupancy ever observed on this link. *)

val packets_delivered : t -> int
val bytes_delivered : t -> int
(** Test-only: a counter accessor that ROADMAP item 4's probes replace. *)

val packets_blackholed : t -> int
(** Packets that arrived with no receiver installed. *)

val packets_accepted : t -> int
(** Every packet ever handed to {!send}, whatever its fate.  At any
    instant the conservation law
    [packets_accepted = packets_delivered + packets_blackholed
     + queue_drops + fault_drops + outage_drops + queue_length
     + (if busy then 1 else 0) + packets_in_flight]
    holds; the invariant oracles check it. *)

val packets_in_flight : t -> int
(** Packets past serialization, currently propagating towards the
    receiver (neither dropped nor delivered yet). *)

val fault_drops : t -> int
(** Packets lost by the fault filter. *)

val outage_drops : t -> int
(** Packets rejected or killed while the link was down. *)

val drop_counts : t -> drop_counts
(** All three drop counters in one read. *)

val total_drops : drop_counts -> int
(** The sum over every drop reason.  Test-only: a counter accessor that ROADMAP item 4's probes replace. *)

val sum_drop_counts : t array -> drop_counts
(** Drop counters summed over a set of links, split by reason
    (queue-full vs fault-injected vs outage): the loss ledger an
    experiment reports.  Pass [Topology.links] for the whole network. *)

val pp_drop_counts : Format.formatter -> drop_counts -> unit

val utilization : t -> Engine.Time.t -> float
(** [utilization t horizon] is the fraction of [\[0, horizon\]] the
    transmitter spent serializing, in [\[0, 1\]].  Raises
    [Invalid_argument] if [horizon] is not positive.  Test-only: a counter accessor that ROADMAP item 4's probes replace. *)

val pp : Format.formatter -> t -> unit
