(** Client-side circuit establishment.

    Drives the CREATE / EXTEND ladder against the {!Relay_ctl}
    automata: CREATE to the guard, then one EXTEND per additional node
    (each travelling through the partially built circuit), finishing
    when the final EXTENDED returns.  The server endpoint participates
    like a relay (it runs a {!Relay_ctl} too), mirroring the
    exit-connects-to-destination step.

    Establishment latency therefore scales quadratically with path
    length in propagation delay — exactly the ramp-up head start a
    freshly built circuit has burnt when data starts flowing, which is
    why the paper cares about the subsequent slow start. *)

type outcome =
  | Established of { at : Engine.Time.t }
  | Refused of { at : Engine.Time.t }
      (** A relay along the ladder answered REFUSED under admission
          control: the path is alive but unavailable.  Retryable — the
          caller should back off and draw another path {e without}
          suspecting any relay of having crashed.  The built prefix is
          torn down before this fires. *)
  | Failed of string

val build :
  Switchboard.t ->
  Circuit.t ->
  ?timeout:Engine.Time.t ->
  on_done:(outcome -> unit) ->
  unit ->
  unit
(** [build client_sb circuit ~on_done ()] starts establishment now;
    [on_done] fires exactly once.  [timeout] (default 30 s of simulated
    time) fails the attempt if the ladder stalls; a timed-out attempt
    sends DESTROY along the built prefix so no half-built routing
    entries are orphaned at the relays.  The client switchboard must
    belong to [circuit.client].  Registers the circuit's handler on the
    client switchboard for the duration and unregisters it before
    [on_done]. *)
