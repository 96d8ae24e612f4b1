(** The single-circuit bottleneck line.

    The world of Figure 1a/1b and of every experiment that runs one
    circuit against one slow relay ({!Trace_experiment},
    {!Fault_experiment}, {!Adaptive_experiment},
    {!Contention_experiment}): a star of [relay_count] relays, a
    [client] and a [server] leaf, and one circuit through every relay in
    declaration order.  Relay [bottleneck_distance] (1-based, counted
    from the client) has access rate [bottleneck_rate], every other
    relay [fast_rate]; every relay is flagged Guard/Exit/Fast/Stable.
    The module owns declaration, the circuit, the bottleneck node and
    links, and establishment through the control plane; an experiment
    adds only its transfer, its disturbance and its result. *)

type t = {
  sim : Engine.Sim.t;
  net : Tor_net.t;
  circuit : Tor_model.Circuit.t;
  bottleneck : Netsim.Node_id.t;  (** The slow relay's node. *)
  extra_leaf : Netsim.Node_id.t option;  (** See [?extra_leaf] of {!create}. *)
}

val validate :
  relay_count:int ->
  bottleneck_distance:int ->
  transfer_bytes:int ->
  horizon:Engine.Time.t ->
  Circuitstart.Params.t ->
  (unit, string) result
(** The checks every line experiment shares, in this order: a positive
    relay count, a distance in [[1, relay_count]], a positive transfer
    size, a positive horizon and valid params.  The first failure
    wins. *)

val create :
  ?queue:Netsim.Nqueue.capacity ->
  ?extra_leaf:bool ->
  relay_count:int ->
  bottleneck_distance:int ->
  bottleneck_rate:Engine.Units.Rate.t ->
  fast_rate:Engine.Units.Rate.t ->
  access_delay:Engine.Time.t ->
  endpoint_rate:Engine.Units.Rate.t ->
  unit ->
  t
(** Declare and finalize the line on a fresh simulator.  [queue] is the
    per-link queue capacity (default unbounded).  Every leaf has one-way
    delay [access_delay]; the client and server run at [endpoint_rate].
    [extra_leaf] (default [false]) adds one more endpoint leaf with the
    same rate and delay, declared after the server; it plays no part in
    the circuit.
    The arguments must pass {!validate}. *)

val bottleneck_links : t -> Netsim.Link.t list
(** Both directions of the bottleneck relay's access link, uplink
    first.  Every cell of the circuit crosses them twice. *)

type run = {
  transfer : Backtap.Transfer.t;
  established_in : Engine.Time.t;
      (** Simulated time the control plane took to build the circuit. *)
  started_at : Engine.Time.t;  (** When the transfer sent its first cell. *)
}

val run : t -> horizon:Engine.Time.t -> (unit -> Backtap.Transfer.t) -> run
(** Build the circuit through the control plane, then run the simulator
    until [horizon] or until something stops it.  Once the circuit is
    established, [start ()] must deploy the transfer on it, arm whatever
    the experiment adds, start it and return it.  Raises [Failure] if
    establishment fails or is refused: no budgets are set on the line,
    so either is a bug. *)

val cwnd_points : Engine.Trace.t -> string -> hop:int -> (Engine.Time.t * float) array
(** [cwnd_points trace name ~hop] is the window series that
    {!Backtap.Transfer.trace_cwnd} recorded under [name] for path
    position [hop], in absolute time; empty if none was recorded. *)

val rebase :
  start:Engine.Time.t -> (Engine.Time.t * float) array -> (Engine.Time.t * float) array
(** The points at or after [start], with times measured from [start]. *)
