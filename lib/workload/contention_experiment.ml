type config = { cbr_load : float; transfer_bytes : int }

let default_config = { cbr_load = 0.25; transfer_bytes = Engine.Units.mib 4 }

(* The fixed line: a 4 Mbit/s middle relay among three, run for at most
   30 s. *)
let bottleneck_rate = Engine.Units.Rate.mbit 4
let horizon = Engine.Time.s 30

let validate_config c =
  if c.transfer_bytes <= 0 then Error "transfer_bytes must be positive"
  else if not (Float.is_finite c.cbr_load) || c.cbr_load < 0. || c.cbr_load > 0.9 then
    Error "cbr_load must be in [0, 0.9]"
  else Ok c

type result = {
  optimal_cells : int;
  expected_cells : float;
  settled_cells : float;
  time_to_last_byte : Engine.Time.t option;
  cbr_packets : int;
  goodput_share : float option;
  wall_events : int;
}

let run config =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Contention_experiment.run: " ^ msg)
  in
  (* A dedicated sink leaf absorbs the background traffic. *)
  let w =
    Line_world.create ~extra_leaf:"cbr-sink" ~relay_count:3 ~bottleneck_distance:2
      ~bottleneck_rate ~fast_rate:(Engine.Units.Rate.mbit 50)
      ~access_delay:(Engine.Time.ms 10) ~endpoint_rate:(Engine.Units.Rate.mbit 100) ()
  in
  let cbr_sink = Option.get w.extra_leaf in
  (* The sink leaf plays no Tor role: repurpose its aux slot so the CBR
     packets are absorbed instead of counting as orphans. *)
  Tor_model.Switchboard.set_aux_handler (Tor_net.switchboard w.net cbr_sink) (fun _ -> ());
  let optimal =
    Optmodel.Optimal_window.source_window_cells (Tor_net.path_model w.net w.circuit)
  in
  (* Background load: emitted *from* the bottleneck relay (as if it
     served other circuits), crossing exactly its uplink. *)
  let cbr =
    if config.cbr_load > 0. then
      Some
        (Netsim.Cbr_source.start (Tor_net.network w.net) ~src:w.bottleneck ~dst:cbr_sink
           ~rate:(Engine.Units.Rate.scale bottleneck_rate config.cbr_load)
           ())
    else None
  in
  let r =
    Line_world.run w ~horizon (fun () ->
        let d =
          Backtap.Transfer.deploy
            ~node_of:(Tor_net.backtap_node w.net)
            ~circuit:w.circuit ~bytes:config.transfer_bytes
            ~strategy:Circuitstart.Controller.Circuit_start
            ~on_complete:(fun _ -> Engine.Sim.stop w.sim)
            ()
        in
        Backtap.Transfer.start d;
        d)
  in
  let d = r.transfer in
  let source = Backtap.Hop_sender.controller (Option.get (Backtap.Transfer.sender_at d 0)) in
  let ttlb = Backtap.Transfer.time_to_last_byte d in
  let goodput_share =
    Option.map
      (fun t ->
        let goodput = float_of_int config.transfer_bytes /. Engine.Time.to_sec_f t in
        goodput /. Engine.Units.Rate.to_bytes_per_sec bottleneck_rate)
      ttlb
  in
  {
    optimal_cells = optimal;
    expected_cells = (1. -. config.cbr_load) *. float_of_int optimal;
    settled_cells = float_of_int (Circuitstart.Controller.cwnd source);
    time_to_last_byte = ttlb;
    cbr_packets = (match cbr with Some c -> Netsim.Cbr_source.packets_sent c | None -> 0);
    goodput_share;
    wall_events = Engine.Sim.events_executed w.sim;
  }

let run_many ?jobs configs = Engine.Pool.map_list ?jobs run configs
