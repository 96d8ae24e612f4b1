(* Quickstart: build a tiny Tor-like overlay by hand, establish a
   circuit through the control plane, run one CircuitStart transfer
   over it and inspect what happened.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A simulation and a star around a hub: three relays plus a
     client and a server, each hanging off the hub by its own access
     link.  The builder wires links; finalize computes routes and
     installs the per-node machinery (switchboard, control automaton,
     BackTap dispatch). *)
  let sim = Engine.Sim.create () in
  let b = Workload.Tor_net.builder sim () in
  List.iter
    (fun (name, mbit) ->
      Workload.Tor_net.add_relay b
        { Workload.Relay_gen.nickname = name;
          bandwidth = Engine.Units.Rate.mbit mbit;
          latency = Engine.Time.ms 10;
          flags =
            [ Tor_model.Relay_info.Guard; Tor_model.Relay_info.Exit;
              Tor_model.Relay_info.Fast; Tor_model.Relay_info.Stable ] })
    [ ("guard", 50); ("middle", 4); ("exit", 50) ];
  let client =
    Workload.Tor_net.add_endpoint b ~rate:(Engine.Units.Rate.mbit 100)
      ~delay:(Engine.Time.ms 10)
  in
  let server =
    Workload.Tor_net.add_endpoint b ~rate:(Engine.Units.Rate.mbit 100)
      ~delay:(Engine.Time.ms 10)
  in
  let net = Workload.Tor_net.finalize b in

  (* 2. A circuit over the three relays, in order. *)
  let relays = Tor_model.Directory.relays (Workload.Tor_net.directory net) in
  let circuit =
    Tor_model.Circuit.make
      ~id:(Tor_model.Circuit_id.next (Workload.Tor_net.circuit_ids net))
      ~client ~relays ~server
  in
  Format.printf "circuit: %a@." Tor_model.Circuit.pp circuit;

  (* 3. What does the analytic model say the source's optimal window
     is?  (This is the dashed line in the paper's Figure 1.) *)
  let path = Workload.Tor_net.path_model net circuit in
  Printf.printf "analytic optimum at the source: %d cells\n"
    (Optmodel.Optimal_window.source_window_cells path);

  (* 4. Establish the circuit through CREATE/EXTEND, then run a 512 KiB
     transfer under CircuitStart. *)
  Tor_model.Circuit_builder.build
    (Workload.Tor_net.switchboard net client)
    circuit
    ~on_done:(fun outcome ->
      match outcome with
      | Tor_model.Circuit_builder.Failed msg -> failwith msg
      | Tor_model.Circuit_builder.Refused _ ->
          failwith "refused"
      | Tor_model.Circuit_builder.Established { at } ->
          Printf.printf "circuit established after %s\n" (Engine.Time.to_string at);
          let transfer =
            Backtap.Transfer.deploy
              ~node_of:(Workload.Tor_net.backtap_node net)
              ~circuit ~bytes:(Engine.Units.kib 512)
              ~strategy:Circuitstart.Controller.Circuit_start
              ~on_complete:(fun finished ->
                Printf.printf "transfer complete at %s\n" (Engine.Time.to_string finished);
                Engine.Sim.stop sim)
              ()
          in
          Backtap.Transfer.start transfer;
          (* Peek at the source's controller when the run ends. *)
          at_exit (fun () ->
              match Backtap.Transfer.sender_at transfer 0 with
              | Some sender ->
                  let c = Backtap.Hop_sender.controller sender in
                  Printf.printf "source window settled at %d cells (%s)\n"
                    (Circuitstart.Controller.cwnd c)
                    (Format.asprintf "%a" Circuitstart.Controller.pp_phase
                       (Circuitstart.Controller.phase c));
                  (match Backtap.Transfer.time_to_last_byte transfer with
                  | Some t ->
                      Printf.printf "time to last byte: %s\n" (Engine.Time.to_string t)
                  | None -> ())
              | None -> ()))
    ();

  (* 5. Run the simulation. *)
  Engine.Sim.run sim ~until:(Engine.Time.s 30);
  Printf.printf "simulated %d events\n" (Engine.Sim.events_executed sim)
