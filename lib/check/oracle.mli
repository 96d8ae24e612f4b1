(** Runtime invariant oracles for the simulator.

    An oracle is a set of passive probes attached to a running
    experiment — the scheduler's fire probe, the links' conservation
    counters, each hop sender's wire-departure/feedback probe and its
    controller's change hooks — that assert conservation and protocol
    laws while the simulation runs:

    - {b clock}: the event clock never goes backwards (a timer-wheel
      entry firing before its deadline surfaces as a regression,
      because the queue stamps every event with its own scheduled
      time);
    - {b link}: per-link packet conservation — every packet handed to
      {!Netsim.Link.send} is accounted delivered, dropped (by reason),
      queued, serializing or in flight;
    - {b hop}: per-hop cell conservation ([sent = feedback + in-flight]
      at every feedback instant and at end of run) and no feedback for
      a never-sent sequence number;
    - {b incarnation}: pooled-pending safety — a wire-departure
      callback is acted on only by the live incarnation whose packet-id
      watermark it passes (the PR-4 [wire_floor] fix as a checked law);
    - {b cwnd}: window trajectory laws — cwnd stays within
      [[min_cwnd, max_cwnd]], ramp-up changes are exact doublings (or
      +1 for slow start), an [Acked_count] overshoot exit equals the
      acked-in-round count, avoidance never shrinks by more than one,
      the Vegas diff is never NaN;
    - {b delivery}: the transfer's contiguous [delivered_bytes] is
      monotone;
    - {b budget}: a budgeted relay's queued-byte occupancy never
      exceeds its [max_queued_bytes] (and never goes negative) at any
      sweep instant — enforcement is synchronous, so between events the
      OOM responder has always restored the bound;
    - {b teardown}: every circuit a relay refused or OOM-killed leaves
      zero routing state and zero byte occupancy at that relay by end
      of run.

    Probes are passive: they observe and record, never schedule — an
    oracle-instrumented run is schedule-identical (and therefore
    result-identical) to a plain run, which the differential harness
    verifies.  Violations are collected, not raised, so a broken run
    still terminates and can be digested and shrunk. *)

type violation = { oracle : string; at : Engine.Time.t; detail : string }

val pp_violation : Format.formatter -> violation -> unit

(** {1 Selecting oracles} *)

type selection = {
  clock : bool;
  link : bool;
  hop : bool;
  incarnation : bool;
  cwnd : bool;
  delivery : bool;
  budget : bool;
  teardown : bool;
}

val all : selection
val none : selection

val oracle_names : string list
(** The names accepted by {!selection_of_string}. *)

val selection_of_string : string -> (selection, string) result
(** ["all"], or a comma-separated subset of {!oracle_names}. *)

val selection_to_string : selection -> string

(** {1 Attaching and reading} *)

type t

val create : ?selection:selection -> unit -> t
(** A fresh oracle with no attachments ([selection] defaults to
    {!all}). *)

val attach : t -> Engine.Sim.t -> Netsim.Link.t array -> Backtap.Transfer.t -> unit
(** Attach the selected probes to one deployed (not yet started)
    transfer and its substrate.  The signature matches the [?probe]
    hook of {!Workload.Fault_experiment.run} and
    {!Workload.Overload_experiment.run}, so
    [~probe:(Oracle.attach oracle)] wires it in; the session world
    calls it once per circuit generation, which is supported
    (attachments accumulate; the fire probe installs once per
    simulator). *)

val attach_relays : t -> Engine.Sim.t -> Tor_model.Relay_ctl.t list -> unit
(** Put budgeted relays under watch: their occupancy is checked at
    every sweep (budget oracle) and every circuit they refuse or
    OOM-kill is checked for complete teardown at {!finish} (teardown
    oracle).  Matches the [?relay_probe] hook of
    {!Workload.Overload_experiment.run}. *)

val finish : t -> unit
(** Run the end-of-run laws (final conservation sweep, per-hop
    accounting for non-aborted senders) and detach every probe. *)

val violations : t -> violation list
(** Violations recorded so far, oldest first.  At most 32 are kept. *)

val violation_count : t -> int
(** Total violations observed, including any beyond the recording
    cap. *)
