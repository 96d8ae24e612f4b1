type t = {
  sim : Engine.Sim.t;
  net : Tor_net.t;
  circuit : Tor_model.Circuit.t;
  bottleneck : Netsim.Node_id.t;
  extra_leaf : Netsim.Node_id.t option;
}

let validate ~relay_count ~bottleneck_distance ~transfer_bytes ~horizon params =
  if relay_count < 1 then Error "relay_count must be positive"
  else if bottleneck_distance < 1 || bottleneck_distance > relay_count then
    Error "bottleneck_distance must be in [1, relay_count]"
  else if transfer_bytes <= 0 then Error "transfer_bytes must be positive"
  else if Engine.Time.(horizon <= Engine.Time.zero) then Error "horizon must be positive"
  else Result.map ignore (Circuitstart.Params.validate params)

let create ?queue ?(extra_leaf = false) ~relay_count ~bottleneck_distance ~bottleneck_rate
    ~fast_rate ~access_delay ~endpoint_rate () =
  let sim = Engine.Sim.create () in
  let b = Tor_net.builder sim ?queue () in
  for i = 0 to relay_count - 1 do
    Tor_net.add_relay b
      { Relay_gen.nickname = Printf.sprintf "relay%d" i;
        bandwidth = (if i + 1 = bottleneck_distance then bottleneck_rate else fast_rate);
        latency = access_delay;
        flags =
          [ Tor_model.Relay_info.Guard; Tor_model.Relay_info.Exit;
            Tor_model.Relay_info.Fast; Tor_model.Relay_info.Stable ] }
  done;
  let endpoint () = Tor_net.add_endpoint b ~rate:endpoint_rate ~delay:access_delay in
  let client = endpoint () in
  let server = endpoint () in
  let extra_leaf = if extra_leaf then Some (endpoint ()) else None in
  let net = Tor_net.finalize b in
  let relays = Tor_model.Directory.relays (Tor_net.directory net) in
  let circuit =
    Tor_model.Circuit.make
      ~id:(Tor_model.Circuit_id.next (Tor_net.circuit_ids net))
      ~client ~relays ~server
  in
  let bottleneck =
    (List.nth relays (bottleneck_distance - 1)).Tor_model.Relay_info.node
  in
  { sim; net; circuit; bottleneck; extra_leaf }

let bottleneck_links w =
  let topo = Netsim.Network.topology (Tor_net.network w.net) in
  let hub = Tor_net.hub w.net in
  List.map
    (fun (a, z) -> Option.get (Netsim.Topology.link topo a z))
    [ (w.bottleneck, hub); (hub, w.bottleneck) ]

type run = {
  transfer : Backtap.Transfer.t;
  established_in : Engine.Time.t;
  started_at : Engine.Time.t;
}

let run w ~horizon start =
  let established = ref None in
  Tor_model.Circuit_builder.build
    (Tor_net.switchboard w.net w.circuit.client)
    w.circuit
    ~on_done:(function
      | Tor_model.Circuit_builder.Failed msg ->
          failwith ("Line_world: circuit establishment failed: " ^ msg)
      | Tor_model.Circuit_builder.Refused _ ->
          failwith "Line_world: circuit establishment refused"
      | Tor_model.Circuit_builder.Established { at } ->
          established := Some (at, start ()))
    ();
  Engine.Sim.run w.sim ~until:horizon;
  match !established with
  | None -> failwith "Line_world: transfer never started"
  | Some (established_in, transfer) ->
      { transfer; established_in;
        started_at = Option.get (Backtap.Transfer.first_sent_at transfer) }

let cwnd_points trace name ~hop =
  match Engine.Trace.find trace (Printf.sprintf "%s/cwnd/%d" name hop) with
  | Some ts -> Engine.Timeseries.points ts
  | None -> [||]

let rebase ~start points =
  Array.of_list
    (List.filter_map
       (fun (time, v) ->
         if Engine.Time.(time < start) then None
         else Some (Engine.Time.diff time start, v))
       (Array.to_list points))
