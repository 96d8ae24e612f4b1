(* Stream multiplexing: Tor carries many application streams over one
   circuit.  Here a bulk download and two small fetches share a single
   CircuitStart circuit; the round-robin cell scheduler keeps the small
   streams from starving behind the bulk one.

   Run with:  dune exec examples/multi_stream.exe *)

let () =
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
    [ ("guard", 50); ("middle", 5); ("exit", 50) ];
  let client =
    Workload.Tor_net.add_endpoint b ~rate:(Engine.Units.Rate.mbit 100)
      ~delay:(Engine.Time.ms 10)
  in
  let server =
    Workload.Tor_net.add_endpoint b ~rate:(Engine.Units.Rate.mbit 100)
      ~delay:(Engine.Time.ms 10)
  in
  let net = Workload.Tor_net.finalize b in
  let circuit =
    Tor_model.Circuit.make
      ~id:(Tor_model.Circuit_id.next (Workload.Tor_net.circuit_ids net))
      ~client
      ~relays:(Tor_model.Directory.relays (Workload.Tor_net.directory net))
      ~server
  in
  let streams = [ (1, Engine.Units.mib 1); (2, Engine.Units.kib 64); (3, Engine.Units.kib 64) ] in
  Tor_model.Circuit_builder.build
    (Workload.Tor_net.switchboard net client)
    circuit
    ~on_done:(fun outcome ->
      match outcome with
      | Tor_model.Circuit_builder.Failed msg -> failwith msg
      | Tor_model.Circuit_builder.Refused _ ->
          failwith "refused"
      | Tor_model.Circuit_builder.Established _ ->
          let d =
            Backtap.Transfer.deploy_streams
              ~node_of:(Workload.Tor_net.backtap_node net)
              ~circuit ~streams ~strategy:Circuitstart.Controller.Circuit_start
              ~on_complete:(fun _ -> Engine.Sim.stop sim)
              ()
          in
          Backtap.Transfer.start d;
          at_exit (fun () ->
              let started = Option.get (Backtap.Transfer.first_sent_at d) in
              List.iter
                (fun (id, bytes) ->
                  match Backtap.Transfer.stream_completed_at d id with
                  | Some at ->
                      Printf.printf "stream %d (%s): done after %.3fs\n" id
                        (Format.asprintf "%a" Engine.Units.pp_bytes bytes)
                        (Engine.Time.to_sec_f (Engine.Time.diff at started))
                  | None -> Printf.printf "stream %d: incomplete\n" id)
                streams))
    ();
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  print_endline
    "the 64 KiB fetches return early while the 1 MiB download continues -\n\
     round-robin scheduling keeps short streams interactive."
