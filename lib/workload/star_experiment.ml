type transport =
  | Backtap of Circuitstart.Controller.strategy
  | Legacy_sendme

type config = {
  relay_count : int;
  circuit_count : int;
  relays_per_circuit : int;
  transfer_bytes : int;
  transport : transport;
  params : Circuitstart.Params.t;
  relay_config : Relay_gen.config;
  endpoint_rate : Engine.Units.Rate.t;
  endpoint_delay : Engine.Time.t;
  horizon : Engine.Time.t;
  seed : int;
}

(* Each transfer starts uniformly within this window (200 ms) after
   its circuit is up, which desynchronises the slow starts. *)
let start_stagger_ns = 200_000_000

let default_config =
  {
    relay_count = 30;
    circuit_count = 50;
    relays_per_circuit = 3;
    transfer_bytes = Engine.Units.kib 500;
    transport = Backtap Circuitstart.Controller.Circuit_start;
    params = Circuitstart.Params.default;
    relay_config = Relay_gen.default_config;
    endpoint_rate = Engine.Units.Rate.mbit 100;
    endpoint_delay = Engine.Time.ms 10;
    horizon = Engine.Time.s 60;
    seed = 1;
  }

let validate_config c =
  if c.relay_count < c.relays_per_circuit then
    Error "relay_count below relays_per_circuit"
  else if c.circuit_count < 1 then Error "circuit_count must be positive"
  else if c.relays_per_circuit < 1 then Error "relays_per_circuit must be positive"
  else if c.transfer_bytes <= 0 then Error "transfer_bytes must be positive"
  else if Engine.Time.(c.horizon <= Engine.Time.zero) then Error "horizon must be positive"
  else
    match (Relay_gen.validate_config c.relay_config, Circuitstart.Params.validate c.params)
    with
    | Error msg, _ | _, Error msg -> Error msg
    | Ok _, Ok _ -> Ok c

type circuit_outcome = {
  circuit_index : int;
  ttlb : Engine.Time.t option;
  bottleneck_rate : Engine.Units.Rate.t;
  optimal_source_cells : int;
  received_bytes : int;
  retransmissions : int;
}

type result = {
  outcomes : circuit_outcome list;
  completed : int;
  total : int;
  ttlb_seconds : float array;
  wall_events : int;
  max_link_queue_bytes : int;
  mean_link_queue_hwm_bytes : float;
  cell_latency : Engine.Stats.Online.t;
}

type runner = {
  start : unit -> unit;
  ttlb : unit -> Engine.Time.t option;
  complete : unit -> bool;
  received_bytes : unit -> int;
  retransmissions : unit -> int;
  latency : unit -> Engine.Stats.Online.t;
}

(* [run] is a pure function of its config: it builds its own
   [Sim.t]/[Rng.t] and touches no state shared with other runs, so a
   sweep's replicates are domain-safe closures for [Engine.Pool]. *)
let run config =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Star_experiment.run: " ^ msg)
  in
  let rng = Engine.Rng.create config.seed in
  let net_rng = Engine.Rng.split rng in
  let path_rng = Engine.Rng.split rng in
  let stagger_rng = Engine.Rng.split rng in
  let sim = Engine.Sim.create () in
  let b = Tor_net.builder sim () in
  List.iter (Tor_net.add_relay b)
    (Relay_gen.generate net_rng config.relay_config ~n:config.relay_count);
  let endpoints =
    List.init config.circuit_count (fun i ->
        let client =
          Tor_net.add_endpoint b
            ~name:(Printf.sprintf "client%02d" i)
            ~rate:config.endpoint_rate ~delay:config.endpoint_delay
        in
        let server =
          Tor_net.add_endpoint b
            ~name:(Printf.sprintf "server%02d" i)
            ~rate:config.endpoint_rate ~delay:config.endpoint_delay
        in
        (client, server))
  in
  let net = Tor_net.finalize b in
  let dir = Tor_net.directory net in
  let circuits =
    List.mapi
      (fun i (client, server) ->
        match Tor_model.Directory.select_path dir path_rng ~hops:config.relays_per_circuit ()
        with
        | None -> failwith "Star_experiment: path selection failed"
        | Some relays ->
            ( i,
              Tor_model.Circuit.make
                ~id:(Tor_model.Circuit_id.next (Tor_net.circuit_ids net))
                ~client ~relays ~server ))
      endpoints
  in
  (* Pre-draw start staggers so they do not depend on establishment
     order (paired runs must use identical offsets). *)
  let staggers =
    List.map
      (fun _ ->
        Engine.Time.ns
          (int_of_float (Engine.Rng.float stagger_rng (float_of_int start_stagger_ns))))
      circuits
  in
  let remaining = ref (List.length circuits) in
  let make_runner (_, circuit) : runner =
    match config.transport with
    | Backtap strategy ->
        let d =
          Backtap.Transfer.deploy
            ~node_of:(Tor_net.backtap_node net)
            ~circuit ~bytes:config.transfer_bytes ~strategy ~params:config.params
            ~on_complete:(fun _ ->
              decr remaining;
              if !remaining = 0 then Engine.Sim.stop sim)
            ()
        in
        {
          start = (fun () -> Backtap.Transfer.start d);
          ttlb = (fun () -> Backtap.Transfer.time_to_last_byte d);
          complete = (fun () -> Backtap.Transfer.complete d);
          received_bytes =
            (fun () -> Tor_model.Stream.Sink.received_bytes (Backtap.Transfer.sink d));
          retransmissions = (fun () -> Backtap.Transfer.total_retransmissions d);
          latency = (fun () -> Backtap.Transfer.cell_latency_stats d);
        }
    | Legacy_sendme ->
        (* SENDME registers circuit handlers on the switchboards, which
           the circuit builder also uses during establishment — so
           deployment must wait until the transfer actually starts. *)
        let d = ref None in
        {
          start =
            (fun () ->
              let x =
                Tor_model.Sendme.deploy
                  ~sb_of:(Tor_net.switchboard net)
                  ~circuit ~bytes:config.transfer_bytes ()
              in
              d := Some x;
              (* SENDME has no completion callback; poll cheaply. *)
              let poll_done = ref false in
              Engine.Sim.every sim (Engine.Time.ms 50)
                (fun () ->
                  if (not !poll_done) && Tor_model.Sendme.complete x then begin
                    poll_done := true;
                    decr remaining;
                    if !remaining = 0 then Engine.Sim.stop sim
                  end)
                ~stop:(fun () -> !poll_done);
              Tor_model.Sendme.start x);
          ttlb =
            (fun () -> Option.bind !d Tor_model.Sendme.time_to_last_byte);
          complete =
            (fun () ->
              match !d with Some x -> Tor_model.Sendme.complete x | None -> false);
          received_bytes =
            (fun () ->
              match !d with
              | Some x -> Tor_model.Stream.Sink.received_bytes (Tor_model.Sendme.sink x)
              | None -> 0);
          retransmissions = (fun () -> 0);
          latency =
            (fun () ->
              match !d with
              | Some x -> Tor_model.Sendme.cell_latency_stats x
              | None -> Engine.Stats.Online.create ());
        }
  in
  let runners = List.map make_runner circuits in
  (* Establish all circuits concurrently; each transfer starts its own
     stagger after its circuit is up. *)
  List.iteri
    (fun i (_, circuit) ->
      let runner = List.nth runners i in
      let stagger = List.nth staggers i in
      Tor_model.Circuit_builder.build
        (Tor_net.switchboard net circuit.Tor_model.Circuit.client)
        circuit
        ~on_done:(fun outcome ->
          match outcome with
          | Tor_model.Circuit_builder.Failed msg ->
              failwith ("Star_experiment: establishment failed: " ^ msg)
          | Tor_model.Circuit_builder.Refused _ ->
              failwith "Star_experiment: establishment refused"
          | Tor_model.Circuit_builder.Established _ ->
              ignore
                (Engine.Sim.schedule_after sim stagger (fun () -> runner.start ())))
        ())
    circuits;
  Engine.Sim.run sim ~until:config.horizon;
  let outcomes =
    List.map2
      (fun (i, circuit) runner ->
        let path = Tor_net.path_model net circuit in
        {
          circuit_index = i;
          ttlb = runner.ttlb ();
          bottleneck_rate = Optmodel.Optimal_window.bottleneck_rate path;
          optimal_source_cells = Optmodel.Optimal_window.source_window_cells path;
          received_bytes = runner.received_bytes ();
          retransmissions = runner.retransmissions ();
        })
      circuits runners
  in
  let ttlb_seconds =
    outcomes
    |> List.filter_map (fun (o : circuit_outcome) ->
           Option.map Engine.Time.to_sec_f o.ttlb)
    |> Array.of_list
  in
  let hwms =
    Array.map Netsim.Link.queue_high_watermark_bytes
      (Netsim.Topology.links (Netsim.Network.topology (Tor_net.network net)))
  in
  {
    outcomes;
    completed = Array.length ttlb_seconds;
    total = List.length circuits;
    ttlb_seconds;
    wall_events = Engine.Sim.events_executed sim;
    max_link_queue_bytes = Array.fold_left Stdlib.max 0 hwms;
    mean_link_queue_hwm_bytes =
      (let n = Array.length hwms in
       if n = 0 then 0.
       else float_of_int (Array.fold_left ( + ) 0 hwms) /. float_of_int n);
    cell_latency =
      List.fold_left
        (fun acc runner -> Engine.Stats.Online.merge acc (runner.latency ()))
        (Engine.Stats.Online.create ())
        runners;
  }

let run_many ?jobs configs = Engine.Pool.map_list ?jobs run configs
