type config = { adaptive : bool; stepped_rate : Engine.Units.Rate.t }

let default_config = { adaptive = true; stepped_rate = Engine.Units.Rate.mbit 12 }

(* The fixed scenario: a 3 Mbit/s middle relay on a 3-relay line steps
   to [stepped_rate] 2 s into a transfer that outlasts the 20 s horizon;
   the reaction ends when the source window reaches 70 % of the new
   optimum. *)
let bottleneck_rate = Engine.Units.Rate.mbit 3
let step_after = Engine.Time.s 2
let target_fraction = 0.7
let horizon = Engine.Time.s 20

type result = {
  optimal_before_cells : int;
  optimal_after_cells : int;
  cwnd_at_step : float;
  reaction_time : Engine.Time.t option;
  final_cwnd : float;
  source_cwnd : (Engine.Time.t * float) array;
  wall_events : int;
}

let run config =
  let w =
    Line_world.create ~relay_count:3 ~bottleneck_distance:2 ~bottleneck_rate
      ~fast_rate:(Engine.Units.Rate.mbit 50) ~access_delay:(Engine.Time.ms 10)
      ~endpoint_rate:(Engine.Units.Rate.mbit 100) ()
  in
  let params =
    { Circuitstart.Params.default with
      Circuitstart.Params.adaptive = config.adaptive;
      re_probe_after =
        (if config.adaptive then 3 else Circuitstart.Params.default.re_probe_after);
    }
  in
  (* Analytic optima before and after the step. *)
  let optimal_with rate =
    Optmodel.Optimal_window.source_window_cells
      (Optmodel.Path_model.of_specs
         (List.map
            (fun node ->
              let spec = Tor_net.access_spec w.net node in
              if Netsim.Node_id.equal node w.bottleneck then
                { spec with Optmodel.Path_model.rate }
              else spec)
            (Tor_model.Circuit.nodes w.circuit)))
  in
  let trace = Engine.Trace.create () in
  let step_time = ref None in
  let r =
    Line_world.run w ~horizon (fun () ->
        let d =
          Backtap.Transfer.deploy
            ~node_of:(Tor_net.backtap_node w.net)
            ~circuit:w.circuit ~bytes:(Engine.Units.mib 8)
            ~strategy:Circuitstart.Controller.Circuit_start ~params
            ~trace:(trace, "adaptive") ()
        in
        Backtap.Transfer.trace_cwnd d (trace, "adaptive");
        Backtap.Transfer.start d;
        (* Raise the bottleneck's access links (both directions) at the
           fixed instant. *)
        ignore
          (Engine.Sim.schedule_after w.sim step_after (fun () ->
               step_time := Some (Engine.Sim.now w.sim);
               List.iter
                 (fun l -> Netsim.Link.set_rate l config.stepped_rate)
                 (Line_world.bottleneck_links w)));
        d)
  in
  let series = Line_world.cwnd_points trace "adaptive" ~hop:0 in
  let stepped =
    match !step_time with Some t -> t | None -> failwith "step never fired"
  in
  let cwnd_at_step =
    Array.fold_left
      (fun acc (time, v) -> if Engine.Time.(time <= stepped) then v else acc)
      (float_of_int params.Circuitstart.Params.initial_cwnd)
      series
  in
  let optimal_after = optimal_with config.stepped_rate in
  let target = target_fraction *. float_of_int optimal_after in
  let reaction_time =
    Array.fold_left
      (fun acc (time, v) ->
        match acc with
        | Some _ -> acc
        | None ->
            if Engine.Time.(time > stepped) && v >= target then
              Some (Engine.Time.diff time stepped)
            else None)
      None series
  in
  {
    optimal_before_cells = optimal_with bottleneck_rate;
    optimal_after_cells = optimal_after;
    cwnd_at_step;
    reaction_time;
    final_cwnd = (match Array.length series with 0 -> nan | n -> snd series.(n - 1));
    source_cwnd = Line_world.rebase ~start:r.started_at series;
    wall_events = Engine.Sim.events_executed w.sim;
  }

let run_many ?jobs configs = Engine.Pool.map_list ?jobs run configs
