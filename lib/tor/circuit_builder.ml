type outcome =
  | Established of { at : Engine.Time.t }
  | Refused of { at : Engine.Time.t }
  | Failed of string

let build sb (circuit : Circuit.t) ?(timeout = Engine.Time.s 30) ~on_done () =
  if not (Netsim.Node_id.equal (Switchboard.node sb) circuit.client) then
    invalid_arg "Circuit_builder.build: switchboard does not belong to the client";
  let sim = Netsim.Network.sim (Switchboard.network sb) in
  let guard =
    match circuit.relays with r :: _ -> r.Relay_info.node | [] -> assert false
  in
  (* Targets still to be attached, beyond the guard. *)
  let remaining =
    ref (List.tl (List.map (fun (r : Relay_info.t) -> r.Relay_info.node) circuit.relays)
        @ [ circuit.server ])
  in
  let finished = ref false in
  let finish outcome =
    if not !finished then begin
      finished := true;
      Switchboard.unregister_circuit sb circuit.id;
      on_done outcome
    end
  in
  let watchdog =
    Engine.Sim.schedule_after sim timeout (fun () ->
        (* Tear down the half-built prefix: a DESTROY from the client
           walks the chain of relay routing entries and removes them,
           so a timed-out attempt leaves no orphaned state behind (it
           stops at a crashed relay, whose table is gone anyway). *)
        Switchboard.send_cell sb ~dst:guard (Cell.make circuit.id Cell.Destroy);
        finish (Failed "circuit establishment timed out"))
  in
  let extend_next () =
    match !remaining with
    | [] ->
        Engine.Sim.cancel sim watchdog;
        finish (Established { at = Engine.Sim.now sim })
    | next :: rest ->
        remaining := rest;
        Switchboard.send_cell sb ~dst:guard
          (Cell.make circuit.id (Cell.Extend { next }))
  in
  (* Nodes attached so far: one per CREATED/EXTENDED received.  When a
     refusal arrives we only need to DESTROY if a prefix exists. *)
  let attached = ref 0 in
  let handler ~from (cell : Cell.t) =
    if Netsim.Node_id.equal from guard then
      match cell.command with
      | Cell.Created | Cell.Extended ->
          incr attached;
          extend_next ()
      | Cell.Refused ->
          (* Some node along the ladder is over budget.  The refusing
             relay kept no state and its predecessor rolled back, so
             only the attached prefix needs tearing down.  Distinct
             from [Failed]: the path is healthy, just unavailable right
             now — the caller should retry elsewhere without suspecting
             anyone of being dead. *)
          Engine.Sim.cancel sim watchdog;
          if !attached > 0 then
            Switchboard.send_cell sb ~dst:guard
              (Cell.make circuit.id Cell.Destroy);
          finish (Refused { at = Engine.Sim.now sim })
      | Cell.Destroy -> finish (Failed "circuit destroyed during establishment")
      | Cell.Create | Cell.Extend _ | Cell.Relay _ -> ()
  in
  Switchboard.register_circuit sb circuit.id handler;
  Switchboard.send_cell sb ~dst:guard (Cell.make circuit.id Cell.Create)
