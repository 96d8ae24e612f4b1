(* torsim: command-line front end for the CircuitStart simulator.

   Subcommands:
     trace     single-circuit cwnd trace (Figure 1, upper panels)
     cdf       N concurrent circuits, TTLB distribution (Figure 1, bottom)
     optimal   analytic optimal-window model for a path
     adaptive  bandwidth-step reaction experiment (paper section 3)
     sweep     gamma / distance parameter sweeps
     cross     one circuit against unresponsive background load
     faults    loss / outage / relay-crash robustness comparison
     recover   session-level rebuild-and-resume around a crash
     overload  flash crowd against budgeted relays (admission + OOM)
     network   consensus-scale round-level workload (pooled circuits)
     churn-scale  the network workload under relay churn
     check     randomized differential invariant checking

   faults, recover, overload, network and churn-scale are paired
   experiments (Workload.Experiment): they run every startup strategy
   on one seed and print one table row per strategy; --strategy runs
   one. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument parsers *)

let strategy_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Workload.Experiment.strategy_of_string s)
  in
  let print fmt s = Format.pp_print_string fmt (Workload.Experiment.label s) in
  Arg.conv (parse, print)

let strategy_arg =
  let doc = "Startup strategy: circuitstart, slowstart, predictive or fixed:N." in
  Arg.(
    value
    & opt strategy_conv Circuitstart.Controller.Circuit_start
    & info [ "strategy" ] ~docv:"STRATEGY" ~doc)

(* Paired experiments print all three startup strategies by default;
   [--strategy X] restricts the table to one. *)
let strategy_opt_arg =
  let doc =
    "Restrict the comparison to one startup strategy (circuitstart, \
     slowstart, predictive or fixed:N); default: all three."
  in
  Arg.(
    value
    & opt (some strategy_conv) None
    & info [ "strategy" ] ~docv:"STRATEGY" ~doc)

let gamma_arg =
  let doc = "Vegas ramp-up exit threshold gamma, in cells (paper: 4)." in
  Arg.(value & opt float 4. & info [ "gamma" ] ~docv:"GAMMA" ~doc)

let seed_arg =
  let doc = "Random seed (identical seeds give identical runs)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for independent simulation replicates (default: \
     $(b,CIRCUITSTART_JOBS), or the detected cores).  Output is \
     byte-identical for every value."
  in
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg "expected a positive integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt positive_int (Engine.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Shards for within-run parallelism: partition the run across N \
     domains, or $(b,auto) for one shard per worker (honors \
     $(b,CIRCUITSTART_JOBS)).  The result is a function of the seed \
     and the config alone, whatever $(b,--jobs) and $(b,--shards) are."
  in
  let shard_count =
    let parse s =
      match s with
      | "auto" -> Ok (Engine.Pool.default_jobs ())
      | _ -> (
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | _ -> Error (`Msg "expected a positive integer or 'auto'"))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt shard_count 1 & info [ "shards" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "Write the raw series as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let bytes_arg default =
  let doc = "Transfer size in KiB." in
  Arg.(value & opt int default & info [ "kib" ] ~docv:"KIB" ~doc)

(* Friendly numeric-flag validation (first failure wins).  A negative
   budget must be a one-line usage error with a nonzero exit, not a
   silent "unlimited": the  <= 0 -> None  translation of the paired
   subcommands would otherwise swallow the typo. *)
let flag_errors checks =
  List.find_map (fun (ok, flag, want, got) ->
      if ok then None
      else Some (Printf.sprintf "%s must be %s (got %d)" flag want got))
    checks

(* An optional [flag] value in seconds as a duration.  A non-finite
   value is a usage error here: [Time.of_sec_f] rejects it with an
   exception. *)
let seconds_opt flag = function
  | None -> Ok None
  | Some x when Float.is_finite x -> Ok (Some (Engine.Time.of_sec_f x))
  | Some x -> Error (Printf.sprintf "%s must be a finite number of seconds (got %g)" flag x)

(* The numbers of a comma-separated [flag] value, or its usage error. *)
let number_list flag s =
  let xs = List.map float_of_string_opt (String.split_on_char ',' s) in
  if List.for_all Option.is_some xs then Ok (List.filter_map Fun.id xs)
  else Error (Printf.sprintf "%s must be a comma-separated list of numbers (got %S)" flag s)

let params_with_gamma gamma =
  Circuitstart.Params.with_gamma Circuitstart.Params.default gamma

let kb = Analysis.Series.kb_of_cells ~cell_size:Backtap.Wire.cell_size

(* ------------------------------------------------------------------ *)
(* trace *)

let run_trace strategy distance bottleneck_mbit kib gamma stats csv =
  let config =
    match
      flag_errors [ (bottleneck_mbit > 0, "--bottleneck-mbit", "positive", bottleneck_mbit) ]
    with
    | Some msg -> Error msg
    | None ->
        Workload.Trace_experiment.validate_config
          { Workload.Trace_experiment.default_config with
            Workload.Trace_experiment.strategy;
            bottleneck_distance = distance;
            bottleneck_rate = Engine.Units.Rate.mbit bottleneck_mbit;
            transfer_bytes = Engine.Units.kib kib;
            params = params_with_gamma gamma;
          }
  in
  match config with
  | Error msg -> `Error (false, msg)
  | Ok config ->
      let t0 = Unix.gettimeofday () in
      let r = Workload.Trace_experiment.run config in
      let wall = Unix.gettimeofday () -. t0 in
      let series =
        Array.map (fun (t, v) -> (Analysis.Series.ms_of_time t, kb v)) r.source_cwnd
      in
      let x_max = Float.max 600. (Analysis.Series.y_max (Array.map (fun (x, _) -> (0., x)) series)) in
      let dashed =
        Analysis.Series.constant ~x_max ~step:25. (kb (float_of_int r.optimal_source_cells))
      in
      print_string
        (Analysis.Ascii_plot.render ~x_label:"time [ms]" ~y_label:"source cwnd [KB]"
           [
             { Analysis.Ascii_plot.label = "source cwnd"; glyph = '*'; points = series };
             { Analysis.Ascii_plot.label = "optimal (model)"; glyph = '-'; points = dashed };
           ]);
      Printf.printf
        "optimal=%d cells  propagated=%d  peak=%.0f  settled=%.0f  exit=%s  ttlb=%s  retx=%d\n"
        r.optimal_source_cells r.propagated_cells r.peak_cells r.settled_cells
        (match r.exit_cells with Some c -> string_of_int c | None -> "-")
        (match r.time_to_last_byte with
        | Some t -> Analysis.Table.cell_time t
        | None -> "incomplete")
        r.retransmissions;
      if stats then
        Printf.printf "engine: %d events in %.3fs wall (%.2fM events/s)\n"
          r.wall_events wall
          (float_of_int r.wall_events /. Float.max 1e-9 wall /. 1e6);
      (match csv with
      | Some path ->
          Analysis.Csv_out.write_file ~path
            (Analysis.Csv_out.series_csv [ ("source_cwnd_kb", series) ]);
          Printf.printf "wrote %s\n" path
      | None -> ());
      `Ok ()

let trace_cmd =
  let distance =
    Arg.(
      value & opt int 1
      & info [ "distance" ] ~docv:"HOPS" ~doc:"Bottleneck distance from the source, in hops (1-3).")
  in
  let bneck =
    Arg.(
      value & opt int 3
      & info [ "bottleneck-mbit" ] ~docv:"MBIT" ~doc:"Bottleneck relay access rate, Mbit/s.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the scheduler's cost after the run: simulator events \
             executed, wall-clock seconds, events/sec.")
  in
  let doc = "Single-circuit congestion-window trace (Figure 1, upper panels)." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const run_trace $ strategy_arg $ distance $ bneck $ bytes_arg 1024
       $ gamma_arg $ stats $ csv_arg))

(* ------------------------------------------------------------------ *)
(* cdf *)

let transport_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "circuitstart" | "cs" ->
        Ok (Workload.Star_experiment.Backtap Circuitstart.Controller.Circuit_start)
    | "slowstart" | "ss" ->
        Ok (Workload.Star_experiment.Backtap Circuitstart.Controller.Slow_start)
    | "predictive" | "pr" ->
        Ok (Workload.Star_experiment.Backtap Circuitstart.Controller.Predictive)
    | "sendme" -> Ok Workload.Star_experiment.Legacy_sendme
    | s -> Error (`Msg (Printf.sprintf "unknown transport %S" s))
  in
  let print fmt = function
    | Workload.Star_experiment.Backtap s ->
        Format.pp_print_string fmt (Workload.Experiment.label s)
    | Workload.Star_experiment.Legacy_sendme -> Format.pp_print_string fmt "sendme"
  in
  Arg.conv (parse, print)

let run_cdf transport circuits relays kib seed csv =
  let config =
    { Workload.Star_experiment.default_config with
      Workload.Star_experiment.transport;
      circuit_count = circuits;
      relay_count = relays;
      transfer_bytes = Engine.Units.kib kib;
      seed;
    }
  in
  match Workload.Star_experiment.validate_config config with
  | Error msg -> `Error (false, msg)
  | Ok config ->
      let r = Workload.Star_experiment.run config in
      if Array.length r.ttlb_seconds = 0 then
        `Error (false, "no transfer completed within the horizon")
      else begin
        let cdf = Analysis.Cdf.of_samples r.ttlb_seconds in
        print_string
          (Analysis.Ascii_plot.render ~x_label:"time to last byte [s]"
             ~y_label:"cumulative distribution"
             [
               { Analysis.Ascii_plot.label = "TTLB CDF"; glyph = '*';
                 points = Array.of_list (Analysis.Cdf.points cdf) };
             ]);
        Printf.printf
          "completed %d/%d   median=%.2fs  p10=%.2fs  p90=%.2fs  max queue=%s  events=%d\n"
          r.completed r.total
          (Analysis.Cdf.quantile cdf 0.5)
          (Analysis.Cdf.quantile cdf 0.1)
          (Analysis.Cdf.quantile cdf 0.9)
          (Format.asprintf "%a" Engine.Units.pp_bytes r.max_link_queue_bytes)
          r.wall_events;
        (match csv with
        | Some path ->
            Analysis.Csv_out.write_file ~path (Analysis.Csv_out.cdf_csv [ ("ttlb", cdf) ]);
            Printf.printf "wrote %s\n" path
        | None -> ());
        `Ok ()
      end

let cdf_cmd =
  let transport =
    Arg.(
      value
      & opt transport_conv
          (Workload.Star_experiment.Backtap Circuitstart.Controller.Circuit_start)
      & info [ "transport" ] ~docv:"T"
          ~doc:"circuitstart (cs), slowstart (ss), predictive (pr) or sendme.")
  in
  let circuits =
    Arg.(value & opt int 50 & info [ "circuits" ] ~docv:"N" ~doc:"Concurrent circuits.")
  in
  let relays =
    Arg.(value & opt int 30 & info [ "relays" ] ~docv:"N" ~doc:"Relays in the network.")
  in
  let doc = "Concurrent circuits over a random star; TTLB distribution (Figure 1, bottom)." in
  Cmd.v (Cmd.info "cdf" ~doc)
    Term.(
      ret (const run_cdf $ transport $ circuits $ relays $ bytes_arg 500 $ seed_arg $ csv_arg))

(* ------------------------------------------------------------------ *)
(* optimal *)

let run_optimal rates delays =
  let specs =
    let ( let* ) = Result.bind in
    let* rates = number_list "--rates" rates in
    let* delays =
      match delays with
      | "" -> Ok (List.map (fun _ -> 10.) rates)
      | d -> number_list "--delays" d
    in
    if List.length rates <> List.length delays then
      Error "--rates and --delays must have the same length"
    else if not (List.for_all (fun r -> Float.is_finite r && r > 0.) rates) then
      Error "--rates must all be positive"
    else if not (List.for_all (fun d -> Float.is_finite d && d >= 0.) delays) then
      Error "--delays must all be finite and >= 0"
    else
      Ok
        (List.map2
           (fun mbit d ->
             { Optmodel.Path_model.rate = Engine.Units.Rate.mbit_f mbit;
               access_delay = Engine.Time.of_ms_f d })
           rates delays)
  in
  match Result.map Optmodel.Path_model.of_specs specs with
  | Error msg | (exception Invalid_argument msg) -> `Error (false, msg)
  | Ok path ->
      Printf.printf "bottleneck: %s at position %d\n"
        (Format.asprintf "%a" Engine.Units.Rate.pp (Optmodel.Optimal_window.bottleneck_rate path))
        (Optmodel.Optimal_window.bottleneck_position path);
      for hop = 0 to Optmodel.Path_model.hop_count path - 1 do
        Printf.printf "hop %d: feedback RTT %s  W* = %d cells (%.1f KB)\n" hop
          (Engine.Time.to_string (Optmodel.Optimal_window.hop_feedback_rtt path hop))
          (Optmodel.Optimal_window.hop_window_cells path hop)
          (kb (float_of_int (Optmodel.Optimal_window.hop_window_cells path hop)))
      done;
      Printf.printf "source W* = %d cells; backpropagated estimate = %d cells\n"
        (Optmodel.Optimal_window.source_window_cells path)
        (Optmodel.Optimal_window.propagated_estimate_cells path);
      `Ok ()

let optimal_cmd =
  let rates =
    Arg.(
      required
      & opt (some string) None
      & info [ "rates" ] ~docv:"MBITS"
          ~doc:"Comma-separated access rates along the path (client first), Mbit/s.")
  in
  let delays =
    Arg.(
      value & opt string ""
      & info [ "delays" ] ~docv:"MS"
          ~doc:"Comma-separated one-way access delays, ms (default 10 each).")
  in
  let doc = "Analytic optimal congestion window for a path (the dashed line)." in
  Cmd.v (Cmd.info "optimal" ~doc) Term.(ret (const run_optimal $ rates $ delays))

(* ------------------------------------------------------------------ *)
(* adaptive *)

let run_adaptive adaptive step_mbit =
  match flag_errors [ (step_mbit > 0, "--step-mbit", "positive", step_mbit) ] with
  | Some msg -> `Error (false, msg)
  | None ->
      let r =
        Workload.Adaptive_experiment.run
          { adaptive; stepped_rate = Engine.Units.Rate.mbit step_mbit }
      in
      Printf.printf "optimal %d -> %d cells; window at step %.0f; reaction %s; final %.0f\n"
        r.optimal_before_cells r.optimal_after_cells r.cwnd_at_step
        (match r.reaction_time with
        | Some t -> Printf.sprintf "%.0fms" (Engine.Time.to_ms_f t)
        | None -> "never")
        r.final_cwnd;
      `Ok ()

let adaptive_cmd =
  let adaptive =
    Arg.(value & flag & info [ "adaptive" ] ~doc:"Enable the adaptive re-probe extension.")
  in
  let step =
    Arg.(
      value & opt int 12
      & info [ "step-mbit" ] ~docv:"MBIT" ~doc:"Bottleneck rate after the step, Mbit/s.")
  in
  let doc = "Mid-transfer bandwidth step: how fast does the window follow? (paper section 3)." in
  Cmd.v (Cmd.info "adaptive" ~doc) Term.(ret (const run_adaptive $ adaptive $ step))

(* ------------------------------------------------------------------ *)
(* cross *)

let run_cross load kib =
  let config =
    { Workload.Contention_experiment.cbr_load = load; transfer_bytes = Engine.Units.kib kib }
  in
  match Workload.Contention_experiment.validate_config config with
  | Error msg -> `Error (false, msg)
  | Ok config ->
      let r = Workload.Contention_experiment.run config in
      Printf.printf
        "unloaded W*=%d cells; fair target %.0f; settled %.0f; goodput share %s; ttlb %s
"
        r.optimal_cells r.expected_cells r.settled_cells
        (match r.goodput_share with
        | Some s -> Printf.sprintf "%.0f%%" (s *. 100.)
        | None -> "-")
        (match r.time_to_last_byte with
        | Some t -> Analysis.Table.cell_time t
        | None -> "incomplete");
      `Ok ()

let cross_cmd =
  let load =
    Arg.(
      value & opt float 0.5
      & info [ "load" ] ~docv:"FRACTION"
          ~doc:"CBR background load as a fraction of the bottleneck rate, in [0, 0.9].")
  in
  let doc = "Share the bottleneck with unresponsive background traffic." in
  Cmd.v (Cmd.info "cross" ~doc) Term.(ret (const run_cross $ load $ bytes_arg 2048))

(* ------------------------------------------------------------------ *)
(* sweep *)

let run_sweep param values strategy jobs =
  let ( let* ) = Result.bind in
  let config_of v =
    match param with
    | "gamma" ->
        Ok
          { Workload.Trace_experiment.default_config with
            Workload.Trace_experiment.strategy;
            bottleneck_distance = 2;
            params = params_with_gamma v;
          }
    | "distance" ->
        Ok
          { Workload.Trace_experiment.default_config with
            Workload.Trace_experiment.strategy;
            relay_count = 4;
            bottleneck_distance = int_of_float v;
          }
    | p -> Error (Printf.sprintf "unknown sweep parameter %S (gamma|distance)" p)
  in
  (* Each sweep point is an independent simulation: build and validate
     the whole config list up front (the first bad value is the usage
     error), fan it out over the domain pool, then render in order. *)
  let rec build = function
    | [] -> Ok []
    | v :: rest ->
        let* c = Result.bind (config_of v) Workload.Trace_experiment.validate_config in
        let* tasks = build rest in
        Ok ((Printf.sprintf "%.0f" v, c) :: tasks)
  in
  match Result.bind (number_list "--values" values) build with
  | Error msg -> `Error (false, msg)
  | Ok tasks ->
      let results = Workload.Trace_experiment.run_many ~jobs (List.map snd tasks) in
      let t =
        Analysis.Table.create ~columns:[ param; "peak"; "exit"; "settled"; "optimal"; "ttlb" ]
      in
      List.iter2
        (fun (label, _) (r : Workload.Trace_experiment.result) ->
          Analysis.Table.add_row t
            [
              label;
              Printf.sprintf "%.0f" r.peak_cells;
              (match r.exit_cells with Some c -> string_of_int c | None -> "-");
              Printf.sprintf "%.0f" r.settled_cells;
              string_of_int r.optimal_source_cells;
              (match r.time_to_last_byte with
              | Some x -> Analysis.Table.cell_time x
              | None -> "-");
            ])
        tasks results;
      print_string (Analysis.Table.render t);
      `Ok ()

let sweep_cmd =
  let param =
    Arg.(
      value & opt string "gamma"
      & info [ "param" ] ~docv:"P" ~doc:"Parameter to sweep: gamma or distance.")
  in
  let values =
    Arg.(
      value & opt string "1,2,4,8,16"
      & info [ "values" ] ~docv:"LIST" ~doc:"Comma-separated values.")
  in
  let doc = "Parameter sweeps over the single-circuit trace experiment." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(ret (const run_sweep $ param $ values $ strategy_arg $ jobs_arg))

(* ------------------------------------------------------------------ *)
(* Paired experiments: faults, recover, overload, network, churn-scale *)

let seconds_cell = function
  | Some x -> Analysis.Table.cell_time x
  | None -> "-"

let mbit_cell bps = Printf.sprintf "%.2f Mbit/s" (bps /. 1e6)

(* The steps every paired subcommand shares: validate [config], run
   every startup strategy on [seed] (or only [strategy]), print one
   table row per run — its strategy, then [row] under [columns] — then
   [each]'s lines per run, [paired]'s lines when all three ran and,
   given [events], the first run's event log. *)
let run_paired (type c r)
    (module X : Workload.Experiment.S with type config = c and type result = r)
    ~columns ~row ?(each = fun _ _ -> ()) ?(paired = fun _ -> ()) ?events
    strategy seed jobs config =
  (* Validate the config that will run: an experiment may refuse a
     strategy, as the round level refuses a fixed window past its cap. *)
  let config = Option.fold ~none:config ~some:(fun s -> X.with_strategy s config) strategy in
  match X.validate_config config with
  | Error msg -> `Error (false, msg)
  | Ok config ->
      let comparison, rows =
        match strategy with
        | None ->
            let c = Workload.Experiment.compare (module X) ~jobs ~seed config in
            (Some c, Workload.Experiment.labelled c)
        | Some s ->
            ( None,
              List.map
                (fun r -> (Workload.Experiment.label s, r))
                (X.run_many ~jobs [ (seed, X.with_strategy s config) ]) )
      in
      let t = Analysis.Table.create ~columns:("strategy" :: columns) in
      List.iter (fun (label, r) -> Analysis.Table.add_row t (label :: row r)) rows;
      print_string (Analysis.Table.render t);
      List.iter (fun (label, r) -> each label r) rows;
      Option.iter paired comparison;
      (match (events, rows) with
      | Some events, (_, r) :: _ ->
          List.iter
            (fun e -> Format.printf "%a@." Engine.Trace.pp_event e)
            (events r)
      | _ -> ());
      `Ok ()

(* ------------------------------------------------------------------ *)
(* faults *)

let run_faults loss burst outage crash distance kib strategy seed jobs verbose
    =
  let ( let* ) = Result.bind in
  let config =
    let* loss =
      match (loss, burst) with
      | Some _, Some _ -> Error "use either --loss or --burst-loss, not both"
      | Some p, None -> Ok (Some (Netsim.Faults.Bernoulli p))
      | None, Some p ->
          (* Fixed transition probabilities give a mean bad episode of 5
             cells; --burst-loss sets how lossy those episodes are. *)
          Ok
            (Some
               (Netsim.Faults.Gilbert_elliott
                  { p_good_to_bad = 0.01; p_bad_to_good = 0.2; loss_good = 0.;
                    loss_bad = p }))
      | None, None -> Ok None
    in
    let* down = seconds_opt "--outage" (Option.map fst outage) in
    let* up = seconds_opt "--outage" (Option.map snd outage) in
    let* crash_at = seconds_opt "--crash-at" crash in
    Ok
      { Workload.Fault_experiment.default_config with
        Workload.Fault_experiment.bottleneck_distance = distance;
        transfer_bytes = Engine.Units.kib kib;
        loss;
        outage = (match (down, up) with Some a, Some b -> Some (a, b) | _ -> None);
        crash_at;
      }
  in
  match config with
  | Error msg -> `Error (false, msg)
  | Ok config ->
      run_paired
        (module Workload.Fault_experiment)
        ~columns:
          [ "outcome"; "ttlb"; "goodput"; "retx"; "drops"; "queue hwm";
            "failed after" ]
        ~row:(fun (r : Workload.Fault_experiment.result) ->
          [
            Workload.Fault_experiment.outcome_to_string r.outcome;
            seconds_cell r.time_to_last_byte;
            mbit_cell r.goodput_bps;
            string_of_int r.retransmissions;
            Format.asprintf "%a" Netsim.Link.pp_drop_counts r.drops;
            Format.asprintf "%a" Engine.Units.pp_bytes
              r.queue_high_watermark_bytes;
            seconds_cell r.failed_after;
          ])
        ?events:
          (if verbose then Some (fun r -> r.Workload.Fault_experiment.events)
           else None)
        strategy seed jobs config

let faults_cmd =
  let loss =
    Arg.(
      value
      & opt (some float) None
      & info [ "loss" ] ~docv:"P"
          ~doc:"Bernoulli loss probability on the bottleneck link, in [0, 1].")
  in
  let burst =
    Arg.(
      value
      & opt (some float) None
      & info [ "burst-loss" ] ~docv:"P"
          ~doc:
            "Gilbert-Elliott bursty loss: bad-state loss probability (episodes \
             average 5 cells).  Mutually exclusive with --loss.")
  in
  let outage =
    Arg.(
      value
      & opt (some (pair ~sep:':' float float)) None
      & info [ "outage" ] ~docv:"T1:T2"
          ~doc:"Take the bottleneck link down from T1 to T2 seconds after transfer start.")
  in
  let crash =
    Arg.(
      value
      & opt (some float) None
      & info [ "crash-at" ] ~docv:"T"
          ~doc:"Crash the bottleneck relay T seconds after transfer start.")
  in
  let distance =
    Arg.(
      value & opt int 2
      & info [ "distance" ] ~docv:"HOPS"
          ~doc:"Bottleneck (and fault-target) distance from the client, in hops (1-3).")
  in
  let verbose =
    Arg.(value & flag & info [ "events" ] ~doc:"Print the fault/recovery/abort event log.")
  in
  let doc = "CircuitStart vs slow start under loss, outages and relay crashes." in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      ret
        (const run_faults $ loss $ burst $ outage $ crash $ distance $ bytes_arg 512
       $ strategy_opt_arg $ seed_arg $ jobs_arg $ verbose))

(* ------------------------------------------------------------------ *)
(* recover *)

let run_recover crash position selection max_rebuilds kib strategy seed jobs
    verbose =
  match
    ( Tor_model.Directory.selection_of_string selection,
      seconds_opt "--crash-at" crash )
  with
  | None, _ ->
      `Error
        (false, Printf.sprintf "unknown selection policy %S (bandwidth|uniform)" selection)
  | _, Error msg -> `Error (false, msg)
  | Some selection, Ok crash_at ->
      run_paired
        (module Workload.Overload_experiment)
        ~columns:
          [ "outcome"; "ttlb"; "rebuilds"; "recovery"; "delivered"; "dup";
            "retx"; "drops"; "queue hwm"; "goodput" ]
        ~row:(fun (r : Workload.Overload_experiment.result) ->
          let s = List.hd r.per_session in
          [
            Workload.Overload_experiment.outcome_to_string s.outcome;
            seconds_cell r.mean_ttlb;
            string_of_int r.rebuilds;
            seconds_cell (List.nth_opt s.recovery_times 0);
            string_of_int r.delivered_bytes;
            string_of_int r.duplicates;
            string_of_int r.retransmissions;
            Format.asprintf "%a" Netsim.Link.pp_drop_counts r.drops;
            Format.asprintf "%a" Engine.Units.pp_bytes
              r.queue_high_watermark_bytes;
            mbit_cell r.goodput_bps;
          ])
        ~paired:(fun c ->
          let cs = c.circuit_start.Workload.Overload_experiment.goodput_bps
          and ss = c.slow_start.Workload.Overload_experiment.goodput_bps in
          if cs > 0. && ss > 0. then
            Printf.printf "goodput gap (circuitstart / slowstart): %.2fx\n"
              (cs /. ss))
        ?events:
          (if verbose then Some (fun r -> r.Workload.Overload_experiment.events)
           else None)
        strategy seed jobs
        { Workload.Overload_experiment.recovery_config with
          Workload.Overload_experiment.transfer_bytes = Engine.Units.kib kib;
          crash_at;
          crash_position = position;
          selection;
          max_rebuilds;
        }

let recover_cmd =
  let crash =
    Arg.(
      value
      & opt (some float) None
      & info [ "crash-at" ] ~docv:"T"
          ~doc:
            "Crash the relay at --crash-position of the first circuit T seconds \
             after transfer start.")
  in
  let position =
    Arg.(
      value & opt int 2
      & info [ "crash-position" ] ~docv:"HOP"
          ~doc:"Path position of the crash victim, 1-based (1 = guard).")
  in
  let selection =
    Arg.(
      value & opt string "bandwidth"
      & info [ "selection" ] ~docv:"POLICY"
          ~doc:"Path selection policy for rebuilds: bandwidth or uniform.")
  in
  let max_rebuilds =
    Arg.(
      value & opt int 3
      & info [ "max-rebuilds" ] ~docv:"N"
          ~doc:"Rebuild attempt budget before the session gives up (0 = none).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "events" ] ~doc:"Print the fault/rebuild/resume event log.")
  in
  let doc = "Session-level recovery: rebuild and resume around a relay crash." in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(
      ret
        (const run_recover $ crash $ position $ selection $ max_rebuilds
       $ bytes_arg 512 $ strategy_opt_arg $ seed_arg $ jobs_arg $ verbose))

(* ------------------------------------------------------------------ *)
(* overload *)

let run_overload sessions kib relays budget_kib max_circuits arrival_ms strategy
    seed jobs verbose =
  match
    flag_errors
      [
        (sessions > 0, "--sessions", "positive", sessions);
        (kib > 0, "--kib", "positive", kib);
        (relays > 0, "--relays", "positive", relays);
        (budget_kib >= 0, "--budget-kib", ">= 0 (0 = unlimited)", budget_kib);
        (max_circuits >= 0, "--max-circuits", ">= 0 (0 = unlimited)",
         max_circuits);
        (arrival_ms > 0, "--arrival-ms", "positive", arrival_ms);
      ]
  with
  | Some msg -> `Error (false, msg)
  | None ->
      run_paired
        (module Workload.Overload_experiment)
        ~columns:
          [ "done"; "exhaust"; "timeout"; "refused"; "rate"; "oom"; "rebuilds";
            "mean ttlb"; "goodput"; "relay hwm" ]
        ~row:(fun (r : Workload.Overload_experiment.result) ->
          [
            Printf.sprintf "%d/%d" r.completed r.sessions;
            string_of_int r.exhausted;
            string_of_int r.timed_out;
            string_of_int r.refusals;
            Printf.sprintf "%.0f%%" (r.refusal_rate *. 100.);
            string_of_int r.oom_kills;
            string_of_int r.rebuilds;
            seconds_cell r.mean_ttlb;
            mbit_cell r.goodput_bps;
            Format.asprintf "%a" Engine.Units.pp_bytes r.relay_byte_hwm;
          ])
        ?events:
          (if verbose then Some (fun r -> r.Workload.Overload_experiment.events)
           else None)
        strategy seed jobs
        { Workload.Overload_experiment.default_config with
          Workload.Overload_experiment.sessions;
          transfer_bytes = Engine.Units.kib kib;
          relay_count = relays;
          max_queued_bytes =
            (if budget_kib <= 0 then None else Some (Engine.Units.kib budget_kib));
          max_circuits = (if max_circuits <= 0 then None else Some max_circuits);
          mean_interarrival = Engine.Time.ms arrival_ms;
        }

let overload_cmd =
  let sessions =
    Arg.(
      value & opt int 12
      & info [ "sessions" ] ~docv:"N"
          ~doc:"Size of the flash crowd (one client per session).")
  in
  let relays =
    Arg.(
      value & opt int 4
      & info [ "relays" ] ~docv:"N"
          ~doc:"Relays in the network (must exceed the 3-hop path length).")
  in
  let budget_kib =
    Arg.(
      value & opt int 48
      & info [ "budget-kib" ] ~docv:"KIB"
          ~doc:"Per-relay queued-cell-byte budget, KiB (0 = unlimited).")
  in
  let max_circuits =
    Arg.(
      value & opt int 6
      & info [ "max-circuits" ] ~docv:"N"
          ~doc:"Per-relay circuit-count budget (0 = unlimited).")
  in
  let arrival_ms =
    Arg.(
      value & opt int 150
      & info [ "arrival-ms" ] ~docv:"MS"
          ~doc:"Mean exponential inter-arrival gap of the crowd, ms.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "events" ] ~doc:"Print the refusal/oom-kill/overload event log.")
  in
  let doc =
    "Flash crowd against budgeted relays: admission refusals, OOM circuit \
     kills, and what the startup strategy costs under contention."
  in
  Cmd.v (Cmd.info "overload" ~doc)
    Term.(
      ret
        (const run_overload $ sessions $ bytes_arg 64 $ relays $ budget_kib
       $ max_circuits $ arrival_ms $ strategy_opt_arg $ seed_arg $ jobs_arg
       $ verbose))

(* ------------------------------------------------------------------ *)
(* network and churn-scale: churn-scale is network with the churn
   flags, so both share the population flags and [run_network]. *)

(* "-" rather than an exception (or a "nans" cell) when a strategy
   completed nothing — an all-refused or churned-out run is a valid
   result, not a crash. *)
let ttlb_cells (r : Workload.Network_experiment.result) =
  List.map
    (fun p ->
      match Engine.Stats.Sketch.quantile_opt r.ttlb_all p with
      | Some x -> Printf.sprintf "%.3fs" x
      | None -> "-")
    [ 0.5; 0.9; 0.99 ]

let network_gap (c : Workload.Network_experiment.result Workload.Experiment.paired) =
  match
    ( Analysis.Cdf.of_sketch_opt c.circuit_start.ttlb_all,
      Analysis.Cdf.of_sketch_opt c.slow_start.ttlb_all )
  with
  | Some better, Some worse ->
      Printf.printf "largest horizontal gap (CircuitStart earlier by): %.3fs\n"
        (Analysis.Cdf.horizontal_gap ~better ~worse)
  | _ ->
      print_string
        "largest horizontal gap: n/a (a strategy completed no circuits)\n"

(* The seven population flags, checked (first failure wins) and folded
   into a config.  The two subcommands word [--relays] and [--circuits]
   differently. *)
let population ~relays_doc ~circuits_doc =
  let relays =
    Arg.(value & opt int 200 & info [ "relays" ] ~docv:"N" ~doc:relays_doc)
  in
  let circuits =
    Arg.(value & opt int 2_000 & info [ "circuits" ] ~docv:"N" ~doc:circuits_doc)
  in
  let lifetimes =
    Arg.(
      value & opt int 0
      & info [ "lifetimes" ] ~docv:"N"
          ~doc:
            "Stop after completing $(docv) circuit lifetimes (0 = 10x the \
             slot count).")
  in
  let duration =
    Arg.(
      value & opt int 0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Simulated-time horizon (0 = run until the lifetime goal).")
  in
  let think_ms =
    Arg.(
      value & opt int 200
      & info [ "think-ms" ] ~docv:"MS"
          ~doc:"Mean exponential think time between a slot's circuits, ms.")
  in
  let budget_kib =
    Arg.(
      value & opt int 0
      & info [ "budget-kib" ] ~docv:"KIB"
          ~doc:"Per-relay queued-cell-byte admission budget, KiB (0 = none).")
  in
  let max_circuits =
    Arg.(
      value & opt int 0
      & info [ "max-circuits" ] ~docv:"N"
          ~doc:"Per-relay circuit-count admission budget (0 = none).")
  in
  let config relays circuits lifetimes duration_s think_ms budget_kib
      max_circuits shards =
    match
      flag_errors
        [
          (relays > 0, "--relays", "positive", relays);
          (circuits > 0, "--circuits", "positive", circuits);
          (lifetimes >= 0, "--lifetimes", ">= 0 (0 = 10x the slot count)",
           lifetimes);
          (duration_s >= 0, "--duration", ">= 0 (0 = until the lifetime goal)",
           duration_s);
          (think_ms > 0, "--think-ms", "positive", think_ms);
          (budget_kib >= 0, "--budget-kib", ">= 0 (0 = unlimited)", budget_kib);
          (max_circuits >= 0, "--max-circuits", ">= 0 (0 = unlimited)",
           max_circuits);
        ]
    with
    | Some msg -> Error msg
    | None ->
        Ok
          { Workload.Network_experiment.default_config with
            Workload.Network_experiment.relays;
            slots = circuits;
            target_lifetimes = lifetimes;
            duration =
              (if duration_s <= 0 then Engine.Time.zero
               else Engine.Time.s duration_s);
            mean_think = Engine.Time.ms think_ms;
            budget =
              {
                Tor_model.Switchboard.max_circuits =
                  (if max_circuits <= 0 then None else Some max_circuits);
                max_queued_bytes =
                  (if budget_kib <= 0 then None
                   else Some (Engine.Units.kib budget_kib));
              };
            shards;
          }
  in
  Term.(
    const config $ relays $ circuits $ lifetimes $ duration $ think_ms
    $ budget_kib $ max_circuits $ shards_arg)

let profile_network seed config =
  match Workload.Network_experiment.validate_config config with
  | Error msg -> `Error (false, msg)
  | Ok config ->
      (* [run_instrumented] sums the minor-GC deltas of every
         participating domain, so the per-event figure stays honest
         for sharded runs. *)
      let t0 = Unix.gettimeofday () in
      let r, minor_words =
        Workload.Network_experiment.run_instrumented ~seed config
      in
      let seconds = Unix.gettimeofday () -. t0 in
      Format.printf "%a@." Workload.Network_experiment.pp_result r;
      Printf.printf
        "profile: %.1fs wall, %d events, %.0f events/sec, %.2f minor \
         words/event, peak heap %d words\n"
        seconds r.wall_events
        (if seconds > 0. then float_of_int r.wall_events /. seconds else 0.)
        (if r.wall_events > 0 then minor_words /. float_of_int r.wall_events
         else 0.)
        (Gc.stat ()).Gc.top_heap_words;
      `Ok ()

(* network and churn-scale differ only in their flags and in the table:
   [columns] and [row] after the three counts both print, and [each]
   run's extra lines. *)
let run_network ~columns ~row ~each config strategy seed jobs profile =
  match config with
  | Error msg -> `Error (false, msg)
  | Ok config when profile -> profile_network seed config
  | Ok config ->
      run_paired
        (module Workload.Network_experiment)
        ~columns:([ "done"; "arrivals"; "refused" ] @ columns)
        ~row:(fun (r : Workload.Network_experiment.result) ->
          List.map string_of_int [ r.completed; r.arrivals; r.refused_arrivals ]
          @ row r)
        ~each ~paired:network_gap strategy seed jobs config

let network_cmd =
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Run one sequential CircuitStart pass and print events/sec, \
             minor words/event and peak heap words instead of the paired \
             CS-vs-SS table.")
  in
  let doc =
    "Consensus-scale network workload: a pooled round-level circuit \
     population over a heavy-tailed relay consensus, paired CircuitStart vs \
     slow start."
  in
  Cmd.v (Cmd.info "network" ~doc)
    Term.(
      ret
        (const
           (run_network
              ~columns:
                [ "abandoned"; "p50 ttlb"; "p90 ttlb"; "p99 ttlb"; "peak live" ]
              ~row:(fun r ->
                (string_of_int r.abandoned :: ttlb_cells r)
                @ [ string_of_int r.peak_active ])
              ~each:(fun _ _ -> ()))
        $ population
            ~relays_doc:
              "Relay population size (heavy-tailed bandwidths; at least 4)."
            ~circuits_doc:
              "Concurrent session slots — the circuit-pool size and the \
               concurrency ceiling."
        $ strategy_opt_arg $ seed_arg $ jobs_arg $ profile))

let churn_scale_cmd =
  let leave_rate =
    Arg.(
      value & opt float 0.02
      & info [ "leave-rate" ] ~docv:"HAZARD"
          ~doc:"Per-relay per-second hazard of an up relay departing.")
  in
  let join_rate =
    Arg.(
      value & opt float 0.1
      & info [ "join-rate" ] ~docv:"HAZARD"
          ~doc:"Per-relay per-second hazard of a down relay (re)joining.")
  in
  let crash_fraction =
    Arg.(
      value & opt float 0.5
      & info [ "crash-fraction" ] ~docv:"F"
          ~doc:
            "Fraction of departures that crash (circuits die immediately) \
             rather than drain gracefully, in [0, 1].")
  in
  let grace_ms =
    Arg.(
      value & opt int 2_000
      & info [ "grace-ms" ] ~docv:"MS"
          ~doc:
            "Drain grace: how long a departing relay keeps forwarding \
             before its surviving circuits are killed.")
  in
  let epoch_ms =
    Arg.(
      value & opt int 5_000
      & info [ "epoch-ms" ] ~docv:"MS"
          ~doc:
            "Directory epoch period: clients draw paths from the population \
             as of the last boundary, so draws race departures by up to one \
             period.")
  in
  let spares =
    Arg.(
      value & opt int 0
      & info [ "spares" ] ~docv:"N"
          ~doc:
            "Extra relays that start down (and invisible) and join under \
             --join-rate.")
  in
  let churned population leave_rate join_rate crash_fraction grace_ms epoch_ms
      spares =
    Result.bind population (fun config ->
        match
          flag_errors
            [
              (grace_ms >= 0, "--grace-ms", ">= 0", grace_ms);
              (epoch_ms > 0, "--epoch-ms", "positive", epoch_ms);
              (spares >= 0, "--spares", ">= 0", spares);
            ]
        with
        | Some msg -> Error msg
        | None ->
            if not (Float.is_finite leave_rate) || leave_rate < 0. then
              Error "--leave-rate must be a finite hazard >= 0"
            else if not (Float.is_finite join_rate) || join_rate < 0. then
              Error "--join-rate must be a finite hazard >= 0"
            else if
              (not (Float.is_finite crash_fraction))
              || crash_fraction < 0. || crash_fraction > 1.
            then Error "--crash-fraction must be in [0, 1]"
            else
              Ok
                { config with
                  Workload.Network_experiment.leave_hazard = leave_rate;
                  join_hazard = join_rate;
                  crash_fraction;
                  drain_grace = Engine.Time.ms grace_ms;
                  epoch_period = Engine.Time.ms epoch_ms;
                  spare_relays = spares;
                })
  in
  let doc =
    "Consensus-scale workload under relay churn: the network experiment's \
     pooled population with a seeded join/leave/crash/drain schedule and \
     directory epochs, paired CircuitStart vs slow start."
  in
  Cmd.v (Cmd.info "churn-scale" ~doc)
    Term.(
      ret
        (const
           (run_network
              ~columns:
                [ "kills"; "resumed"; "gone"; "drain-ref"; "p50 ttlb";
                  "p90 ttlb"; "p99 ttlb" ]
              ~row:(fun r ->
                List.map string_of_int
                  [ r.churn_kills; r.resumed; r.gone_draws;
                    r.draining_refusals ]
                @ ttlb_cells r)
              ~each:(fun label r ->
                (* The schedule is seeded per strategy run, but each run
                   ends at its own goal time, so the counts can differ —
                   print each. *)
                Printf.printf
                  "churn (%s): %d departs (%d crashes, %d drains done), %d \
                   restarts, %d epochs\n"
                  label r.churn_departs r.churn_crashes
                  r.churn_drains_completed r.churn_restarts r.churn_epochs))
        $ (const churned
          $ population
              ~relays_doc:
                "Initial relay population size (at least 4, with an exit)."
              ~circuits_doc:"Concurrent session slots."
          $ leave_rate $ join_rate $ crash_fraction $ grace_ms $ epoch_ms
          $ spares)
        $ strategy_opt_arg $ seed_arg $ jobs_arg $ const false))

(* ------------------------------------------------------------------ *)

let run_check runs seed oracles kind strategy replay out =
  if runs < 1 then `Error (false, "--runs must be positive")
  else
    let only =
      match kind with
      | None -> Ok None
      | Some k -> (
          match Check.Scenario.kind_of_string k with
          | Some parsed -> Ok (Some parsed)
          | None ->
              Error
                (Printf.sprintf
                   "--kind: unknown scenario kind %S (want faults, recovery, \
                    overload, network or churn)"
                   k))
    in
    let strat =
      match strategy with
      | Some (Circuitstart.Controller.Fixed _) ->
          Error
            "--strategy: fixed:N is not a sampled strategy (want \
             circuitstart, slowstart or predictive)"
      | s -> Ok s
    in
    match (only, strat) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok only, Ok strat -> (
        match Check.Oracle.selection_of_string oracles with
        | Error msg -> `Error (false, msg)
        | Ok selection -> (
            let ppf = Format.std_formatter in
            match replay with
            | Some line -> (
                match Check.Harness.replay ~selection line ppf with
                | Error msg -> `Error (false, msg)
                | Ok true -> `Ok ()
                | Ok false -> `Error (false, "replayed scenario fails"))
            | None ->
                let report =
                  Check.Harness.run ~selection ?only ?strat ?out ~runs ~seed ppf
                in
                if report.Check.Harness.failures = [] then `Ok ()
                else `Error (false, "invariant checks failed")))

let check_cmd =
  let runs =
    Arg.(
      value & opt int 50
      & info [ "runs" ] ~docv:"N" ~doc:"Number of random scenarios to check.")
  in
  let oracles =
    Arg.(
      value & opt string "all"
      & info [ "oracle" ] ~docv:"SET"
          ~doc:
            "Which invariant oracles to run: $(b,all) or a comma-separated \
             subset of clock, link, hop, incarnation, cwnd, delivery, budget, \
             teardown.")
  in
  let kind =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Pin every sampled scenario to one kind: $(b,faults), \
             $(b,recovery), $(b,overload), $(b,network) or $(b,churn) \
             (default: the mixed population).")
  in
  let strategy =
    Arg.(
      value
      & opt (some strategy_conv) None
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Pin every sampled scenario's startup strategy: \
             $(b,circuitstart), $(b,slowstart) or $(b,predictive) \
             (default: the mixed population).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"LINE"
          ~doc:
            "Re-check one scenario from a reproducer line instead of sampling \
             (as printed by a failing run).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write shrunk reproducer lines for failing scenarios to $(docv).")
  in
  let doc =
    "Randomized differential checking: run invariant oracles over random \
     fault/recovery/overload scenarios, verify same-seed and jobs-1-vs-4 \
     determinism, and shrink any failure to a replayable line."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      ret
        (const run_check $ runs $ seed_arg $ oracles $ kind $ strategy $ replay
       $ out))

let () =
  (* Fail fast on a malformed CIRCUITSTART_JOBS: [Pool.default_jobs]
     itself stays total (it silently falls back), so the CLI is where a
     typo gets its one-line error instead of a quietly wrong core
     count. *)
  (match Engine.Pool.env_jobs () with
  | Ok _ -> ()
  | Error msg ->
      prerr_endline ("torsim: " ^ msg);
      exit 2);
  let doc = "CircuitStart: a slow start for multi-hop anonymity systems (simulator)" in
  let info = Cmd.info "torsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ trace_cmd; cdf_cmd; optimal_cmd; adaptive_cmd; sweep_cmd; cross_cmd;
            faults_cmd; recover_cmd; overload_cmd; network_cmd;
            churn_scale_cmd; check_cmd ]))
