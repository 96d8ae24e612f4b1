(** Client-side circuit lifecycle management: one logical transfer
    across circuit generations.

    A session owns the control-plane loop that real Tor clients run
    and the simulator previously lacked: build a circuit
    ({!Circuit_builder}), hand it to the data plane, and when either
    establishment or the transfer fails, {e recover} — exclude the
    relays suspected of causing the failure, draw an alternate path
    from the {!Directory} (pluggable {!Directory.selection} policy,
    seeded through the session's {!Engine.Rng.t}), wait an
    exponentially backed-off delay with a cap and jitter, tear the old
    generation down (DESTROY along the live prefix plus data-plane
    unregistration, so no stale switchboard state leaks), rebuild, and
    resume the transfer from the last contiguously delivered byte.

    The data plane is abstract: the session drives any transport that
    can be deployed at a byte offset and report delivered-prefix
    progress (see {!type:deploy}).  [Backtap.Transfer] satisfies this
    via its [offset] / [delivered_bytes] support; the wiring lives in
    [Workload.Overload_experiment] (the packet-level session world) so
    this module stays free of a dependency cycle.

    Recovery is bounded: at most [max_rebuilds] rebuild attempts are
    made before the session gives up with a terminal
    {!constructor:Exhausted} outcome carrying a typed {!reason}.  Every
    rebuild, resume and exhaustion is recorded in the session's
    {!Engine.Trace.t} (kinds [Rebuild], [Resume], [Exhausted]), with
    the time-to-recover in the resume detail.

    Two failure modes reach a session.  A {e crash} shows as a build
    timeout or a transfer failure: the suspected relays (the whole
    path after a timeout, the failed hop's successor after a transfer
    failure) are excluded from every later draw.  A {e busy} relay
    shows as an admission-control refusal during establishment
    ({!Circuit_builder.Refused}) or as a remote DESTROY mid-transfer
    (an overloaded relay's OOM responder shedding the circuit).  Busy
    is not suspected-crashed, so both back off and redraw a path
    without excluding anyone; permanently blacklisting a hot relay
    would starve the network's best capacity. *)

type reason =
  | Rebuild_budget  (** Every allowed rebuild attempt failed. *)
  | No_path
      (** The directory could not produce a path avoiding the excluded
          relays. *)

val reason_to_string : reason -> string
(** ["rebuild-budget"] or ["no-path"]. *)

type outcome =
  | Completed of { at : Engine.Time.t; rebuilds : int }
      (** The transfer delivered every byte, after [rebuilds] circuit
          rebuilds (0 = the first circuit survived). *)
  | Exhausted of { at : Engine.Time.t; reason : reason; rebuilds : int }
      (** The session gave up.  Terminal, reached in bounded simulated
          time even with [max_rebuilds = 0]. *)

type transfer_handle = {
  start : unit -> unit;  (** Inject the transfer (called once). *)
  delivered : unit -> int;
      (** Contiguously delivered bytes so far; must stay readable after
          [teardown] — the session reads it to compute the next
          generation's resume offset. *)
  teardown : unit -> unit;
      (** Unregister this generation's data-plane state everywhere.
          Must be idempotent. *)
}

type deploy =
  circuit:Circuit.t ->
  offset:int ->
  on_complete:(Engine.Time.t -> unit) ->
  on_fail:(failed_hop:int option -> Engine.Time.t -> unit) ->
  transfer_handle
(** Deploy (but do not start) the data plane on [circuit], resuming
    from byte [offset].  Exactly one of [on_complete] / [on_fail] must
    eventually fire, at most once.  [failed_hop] is the path position
    (0 = client) of the sender that declared its successor dead, if
    known — the session excludes that successor from future paths. *)

type t

val create :
  sb:Switchboard.t ->
  directory:Directory.t ->
  ids:Circuit_id.gen ->
  server:Netsim.Node_id.t ->
  rng:Engine.Rng.t ->
  hops:int ->
  deploy:deploy ->
  ?selection:Directory.selection ->
  ?max_rebuilds:int ->
  ?build_timeout:Engine.Time.t ->
  ?backoff_base:Engine.Time.t ->
  ?backoff_cap:Engine.Time.t ->
  ?backoff_jitter:float ->
  ?trace:Engine.Trace.t * string ->
  ?on_outcome:(outcome -> unit) ->
  unit ->
  t
(** A session for the client owning [sb], transferring to [server]
    over [hops]-relay circuits drawn from [directory] (ids from
    [ids]).  [selection] defaults to [Bandwidth_weighted];
    [max_rebuilds] (default 3, must be >= 0) bounds recovery attempts;
    [build_timeout] (default 10 s) is handed to {!Circuit_builder}.
    The [k]-th rebuild waits [backoff_base * 2^(k-1)] (default base
    250 ms), capped at [backoff_cap] (default 4 s), stretched by a
    uniform jitter in [1, 1 + backoff_jitter) (default 0.25, may be 0)
    drawn from [rng].  [on_outcome] fires exactly once, at the terminal
    instant.  Raises [Invalid_argument] on nonsensical parameters. *)

val start : t -> unit
(** Select the first path and begin establishment.  Raises
    [Invalid_argument] if called twice. *)

val outcome : t -> outcome option
(** The terminal outcome, once reached. *)

val rebuilds : t -> int
(** Rebuild attempts begun so far. *)

val refused_builds : t -> int
(** Build attempts that ended in an admission-control refusal
    ({!Circuit_builder.Refused}).  Refusals back off and redraw like
    any failure but {e never} add the busy relay to the exclusion list
    — busy is not suspected-crashed, and a hot relay must remain
    selectable once its load drains. *)

val delivered_bytes : t -> int
(** Contiguously delivered bytes of the logical transfer (survives
    across generations; readable after exhaustion). *)

val excluded : t -> Netsim.Node_id.t list
(** Relays excluded from path selection, in {!Netsim.Node_id.compare}
    order.  An exclusion lasts for the rest of the session. *)

val recovery_times : t -> Engine.Time.t list
(** Time-to-recover of each successful rebuild, oldest first: the span
    from the failure that triggered the rebuild to the resumed
    transfer's start. *)
