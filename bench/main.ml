(* Reproduction harness: one entry per figure panel and table of the
   paper's evaluation (DESIGN.md section 2), each printing the series or
   rows it regenerates and writing CSV next to the terminal rendering.

   Every independent simulation inside a target runs on the domain pool
   (Engine.Pool); rendering stays sequential and in a fixed order, so
   the terminal/CSV output is byte-identical for every --jobs value.

   Usage:
     bench/main.exe                 run every figure and table
     bench/main.exe fig1a table-gamma ...
                                    run a subset
     bench/main.exe --jobs N        worker domains for simulation
                                    batches (default: detected cores)
     bench/main.exe --out DIR       CSV output directory (default
                                    results/) *)

let out_dir = ref "results"
let jobs = ref (Engine.Pool.default_jobs ())

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let write_csv name contents =
  let path = Filename.concat !out_dir name in
  Analysis.Csv_out.write_file ~path contents;
  Printf.printf "[csv] %s\n" path

let trace_many configs = Workload.Trace_experiment.run_many ~jobs:!jobs configs
let star_many configs = Workload.Star_experiment.run_many ~jobs:!jobs configs

(* ------------------------------------------------------------------ *)
(* Figure 1, upper panels: source cwnd traces *)

let cell_wire_size = Backtap.Wire.cell_size

let trace_config ~strategy ~distance =
  { Workload.Trace_experiment.default_config with
    Workload.Trace_experiment.strategy;
    bottleneck_distance = distance;
  }

let kb = Analysis.Series.kb_of_cells ~cell_size:cell_wire_size

(* A cwnd trace's change points [(t, cells)] as a step function in KB,
   sampled at 121 evenly spaced instants over [0, x_max] ms, so the
   staircase of doubling rounds shows in the plot; [before] is its value
   before the first point. *)
let resample_steps ~x_max ~before points =
  Array.init 121 (fun i ->
      let x = float_of_int i *. x_max /. 120. in
      let v =
        Array.fold_left
          (fun acc (t, v) -> if Analysis.Series.ms_of_time t <= x then v else acc)
          before points
      in
      (x, kb v))

let fig1_panel ~name ~distance () =
  section
    (Printf.sprintf "Figure 1 (%s): source cwnd, distance to bottleneck: %d hop%s" name
       distance
       (if distance = 1 then "" else "s"));
  let r =
    Workload.Trace_experiment.run
      (trace_config ~strategy:Circuitstart.Controller.Circuit_start ~distance)
  in
  let x_max = 600. in
  let series =
    let points = r.source_cwnd in
    resample_steps ~x_max
      ~before:(match points with [||] -> 0. | _ -> snd points.(0))
      points
  in
  let optimal = kb (float_of_int r.optimal_source_cells) in
  let dashed = Analysis.Series.constant ~x_max ~step:25. optimal in
  print_string
    (Analysis.Ascii_plot.render ~x_label:"time [ms]" ~y_label:"source cwnd [KB]"
       [
         { Analysis.Ascii_plot.label = "CircuitStart source cwnd"; glyph = '*';
           points = series };
         { Analysis.Ascii_plot.label = "optimal (model)"; glyph = '-'; points = dashed };
       ]);
  Printf.printf
    "optimal=%0.1fKB (%d cells)  peak=%0.1fKB  settled=%0.1fKB  exit->%s cells  ttlb=%s\n"
    optimal r.optimal_source_cells (kb r.peak_cells) (kb r.settled_cells)
    (match r.exit_cells with Some c -> string_of_int c | None -> "-")
    (match r.time_to_last_byte with
    | Some t -> Analysis.Table.cell_time t
    | None -> "incomplete");
  write_csv
    (Printf.sprintf "%s_cwnd.csv" name)
    (Analysis.Csv_out.series_csv [ ("cwnd_kb", series); ("optimal_kb", dashed) ]);
  write_csv
    (Printf.sprintf "%s_cwnd.gp" name)
    (Analysis.Gnuplot.series_script
       ~csv_file:(Printf.sprintf "%s_cwnd.csv" name)
       ~title:
         (Printf.sprintf "CircuitStart source cwnd, bottleneck %d hop(s) away" distance)
       ~x_label:"time [ms]" ~y_label:"source cwnd [KB]"
       ~series:[ "cwnd_kb"; "optimal_kb" ])

let fig1a () = fig1_panel ~name:"fig1a" ~distance:1 ()
let fig1b () = fig1_panel ~name:"fig1b" ~distance:3 ()

(* ------------------------------------------------------------------ *)
(* Figure 1, bottom panel: TTLB CDF with vs without CircuitStart *)

let star_config transport =
  { Workload.Star_experiment.default_config with Workload.Star_experiment.transport }

let fig1c () =
  section "Figure 1 (fig1c): CDF of time to last byte, 50 concurrent circuits";
  let cs, ss =
    match
      star_many
        [
          star_config
            (Workload.Star_experiment.Backtap Circuitstart.Controller.Circuit_start);
          star_config
            (Workload.Star_experiment.Backtap Circuitstart.Controller.Slow_start);
        ]
    with
    | [ cs; ss ] -> (cs, ss)
    | _ -> assert false
  in
  let cdf_cs = Analysis.Cdf.of_samples cs.ttlb_seconds in
  let cdf_ss = Analysis.Cdf.of_samples ss.ttlb_seconds in
  let to_series cdf = Array.of_list (Analysis.Cdf.points cdf) in
  print_string
    (Analysis.Ascii_plot.render ~x_label:"time to last byte [s]"
       ~y_label:"cumulative distribution"
       [
         { Analysis.Ascii_plot.label = "with CircuitStart"; glyph = '*';
           points = to_series cdf_cs };
         { Analysis.Ascii_plot.label = "without CircuitStart (slow start)"; glyph = 'o';
           points = to_series cdf_ss };
       ]);
  Printf.printf "completed: with=%d/%d without=%d/%d\n" cs.completed cs.total ss.completed
    ss.total;
  Printf.printf "median: with=%.2fs without=%.2fs   p90: with=%.2fs without=%.2fs\n"
    (Analysis.Cdf.quantile cdf_cs 0.5)
    (Analysis.Cdf.quantile cdf_ss 0.5)
    (Analysis.Cdf.quantile cdf_cs 0.9)
    (Analysis.Cdf.quantile cdf_ss 0.9);
  Printf.printf
    "largest horizontal gap (CircuitStart earlier by): %.3fs   (paper: up to ~0.5s)\n"
    (Analysis.Cdf.horizontal_gap ~better:cdf_cs ~worse:cdf_ss);
  write_csv "fig1c_cdf.csv"
    (Analysis.Csv_out.cdf_csv
       [ ("with_circuitstart", cdf_cs); ("without_circuitstart", cdf_ss) ]);
  write_csv "fig1c_cdf.gp"
    (Analysis.Gnuplot.cdf_script ~csv_file:"fig1c_cdf.csv"
       ~title:"Time to last byte, 50 concurrent circuits"
       ~x_label:"time to last byte [s]"
       ~series:[ "with_circuitstart"; "without_circuitstart" ])

(* ------------------------------------------------------------------ *)
(* T1: startup-scheme comparison (extra table) *)

let table_startup () =
  section "Table T1 (extra): transport comparison on the 50-circuit star";
  let t =
    Analysis.Table.create
      ~columns:
        [ "transport"; "done"; "median TTLB"; "p90 TTLB"; "cell lat (mean/max)";
          "max queue"; "Jain"; "retx" ]
  in
  let transports =
    List.map
      (fun s ->
        (Workload.Experiment.label s, Workload.Star_experiment.Backtap s))
      [ Circuitstart.Controller.Circuit_start;
        Circuitstart.Controller.Slow_start ]
    @ [ ("sendme", Workload.Star_experiment.Legacy_sendme) ]
  in
  let results = star_many (List.map (fun (_, tr) -> star_config tr) transports) in
  List.iter2
    (fun (name, _) (r : Workload.Star_experiment.result) ->
      let cdf = Analysis.Cdf.of_samples r.ttlb_seconds in
      let retx =
        List.fold_left
          (fun acc (o : Workload.Star_experiment.circuit_outcome) ->
            acc + o.retransmissions)
          0 r.outcomes
      in
      let jain =
        Analysis.Fairness.jain_index
          (Analysis.Fairness.throughputs_bytes_per_sec
             ~bytes_each:Workload.Star_experiment.default_config.transfer_bytes
             r.ttlb_seconds)
      in
      Analysis.Table.add_row t
        [
          name;
          Printf.sprintf "%d/%d" r.completed r.total;
          Printf.sprintf "%.2fs" (Analysis.Cdf.quantile cdf 0.5);
          Printf.sprintf "%.2fs" (Analysis.Cdf.quantile cdf 0.9);
          Printf.sprintf "%.0f/%.0fms"
            (Engine.Stats.Online.mean r.cell_latency *. 1e3)
            (Engine.Stats.Online.max r.cell_latency *. 1e3);
          Format.asprintf "%a" Engine.Units.pp_bytes r.max_link_queue_bytes;
          Printf.sprintf "%.3f" jain;
          string_of_int retx;
        ])
    transports results;
  print_string (Analysis.Table.render t);
  print_string
    "(SENDME wins raw bulk TTLB by dumping its whole end-to-end window into\n\
     relay queues - the 'max queue' column is the bufferbloat the tailored\n\
     transports exist to avoid.)\n"

(* ------------------------------------------------------------------ *)
(* T2: gamma ablation *)

let table_gamma () =
  section "Table T2 (extra): gamma ablation (trace, distance 2)";
  let t =
    Analysis.Table.create
      ~columns:[ "gamma"; "peak cells"; "exit cells"; "settled"; "|err| vs opt"; "ttlb" ]
  in
  let gammas = [ 1.; 2.; 4.; 8.; 16. ] in
  let results =
    trace_many
      (List.map
         (fun gamma ->
           { (trace_config ~strategy:Circuitstart.Controller.Circuit_start ~distance:2) with
             Workload.Trace_experiment.params =
               Circuitstart.Params.with_gamma Circuitstart.Params.default gamma;
           })
         gammas)
  in
  List.iter2
    (fun gamma (r : Workload.Trace_experiment.result) ->
      Analysis.Table.add_row t
        [
          Printf.sprintf "%.0f" gamma;
          Printf.sprintf "%.0f" r.peak_cells;
          (match r.exit_cells with Some c -> string_of_int c | None -> "-");
          Printf.sprintf "%.0f" r.settled_cells;
          Printf.sprintf "%.0f" (Float.abs (r.settled_cells -. float_of_int r.optimal_source_cells));
          (match r.time_to_last_byte with
          | Some x -> Analysis.Table.cell_time x
          | None -> "-");
        ])
    gammas results;
  print_string (Analysis.Table.render t)

(* ------------------------------------------------------------------ *)
(* T3: bottleneck-distance sweep *)

let table_distance () =
  section "Table T3 (extra): bottleneck distance sweep (4-relay circuit)";
  let t =
    Analysis.Table.create
      ~columns:
        [ "distance"; "scheme"; "peak"; "peak/opt"; "settled"; "|err|"; "ttlb" ]
  in
  let cases =
    List.concat_map
      (fun distance ->
        List.map
          (fun strategy -> (distance, strategy))
          [ Circuitstart.Controller.Circuit_start;
            Circuitstart.Controller.Slow_start ])
      [ 1; 2; 3; 4 ]
  in
  let results =
    trace_many
      (List.map
         (fun (distance, strategy) ->
           { (trace_config ~strategy ~distance) with
             Workload.Trace_experiment.relay_count = 4;
           })
         cases)
  in
  List.iter2
    (fun (distance, strategy) (r : Workload.Trace_experiment.result) ->
      let opt = float_of_int r.optimal_source_cells in
      Analysis.Table.add_row t
        [
          string_of_int distance;
          Workload.Experiment.label strategy;
          Printf.sprintf "%.0f" r.peak_cells;
          Printf.sprintf "%.1fx" (r.peak_cells /. opt);
          Printf.sprintf "%.0f" r.settled_cells;
          Printf.sprintf "%.0f" (Float.abs (r.settled_cells -. opt));
          (match r.time_to_last_byte with
          | Some x -> Analysis.Table.cell_time x
          | None -> "-");
        ])
    cases results;
  print_string (Analysis.Table.render t)

(* ------------------------------------------------------------------ *)
(* T4: optimal-model accuracy *)

let table_optmodel () =
  section "Table T4 (extra): analytic optimum vs settled window";
  let t =
    Analysis.Table.create
      ~columns:[ "bottleneck"; "model W* (cells)"; "settled"; "settled/W*" ]
  in
  let mbits = [ 1; 2; 3; 5; 8; 12 ] in
  let results =
    trace_many
      (List.map
         (fun mbit ->
           { (trace_config ~strategy:Circuitstart.Controller.Circuit_start ~distance:2) with
             Workload.Trace_experiment.bottleneck_rate = Engine.Units.Rate.mbit mbit;
             (* Large enough that the window converges before the data
                runs out even at the fast end of the sweep. *)
             transfer_bytes = Engine.Units.mib 8;
             horizon = Engine.Time.s 20;
           })
         mbits)
  in
  let ratios =
    List.map2
      (fun mbit (r : Workload.Trace_experiment.result) ->
        let ratio = r.settled_cells /. float_of_int r.optimal_source_cells in
        Analysis.Table.add_row t
          [
            Printf.sprintf "%dMbit/s" mbit;
            string_of_int r.optimal_source_cells;
            Printf.sprintf "%.0f" r.settled_cells;
            Printf.sprintf "%.2f" ratio;
          ];
        ratio)
      mbits results
  in
  print_string (Analysis.Table.render t);
  Printf.printf "mean settled/W* ratio: %.2f (1.00 = perfect backpropagation)\n"
    (List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios))

(* ------------------------------------------------------------------ *)
(* T-comp: compensation-mode ablation *)

let table_compensation () =
  section "Table T-comp (extra): overshooting-compensation ablation (distance 3)";
  let t =
    Analysis.Table.create
      ~columns:[ "scheme"; "exit cells"; "settled"; "optimal"; "ttlb" ]
  in
  let cases =
    [
      ("rate-based (default)", Circuitstart.Controller.Circuit_start,
       Circuitstart.Params.Rate_based);
      ("acked-count (literal)", Circuitstart.Controller.Circuit_start,
       Circuitstart.Params.Acked_count);
      ("halving (slow start)", Circuitstart.Controller.Slow_start,
       Circuitstart.Params.Rate_based);
    ]
  in
  let results =
    trace_many
      (List.map
         (fun (_, strategy, compensation) ->
           { (trace_config ~strategy ~distance:3) with
             Workload.Trace_experiment.params =
               { Circuitstart.Params.default with Circuitstart.Params.compensation };
           })
         cases)
  in
  List.iter2
    (fun (name, _, _) (r : Workload.Trace_experiment.result) ->
      Analysis.Table.add_row t
        [
          name;
          (match r.exit_cells with Some c -> string_of_int c | None -> "-");
          Printf.sprintf "%.0f" r.settled_cells;
          string_of_int r.optimal_source_cells;
          (match r.time_to_last_byte with
          | Some x -> Analysis.Table.cell_time x
          | None -> "-");
        ])
    cases results;
  print_string (Analysis.Table.render t)

(* ------------------------------------------------------------------ *)
(* T5: adaptive extension (paper section 3, future work) *)

let table_adaptive () =
  section "Table T5 (extra): reacting to a bandwidth step (3 -> 12 Mbit/s)";
  let t =
    Analysis.Table.create
      ~columns:
        [ "variant"; "opt before"; "opt after"; "cwnd@step"; "reaction"; "final cwnd" ]
  in
  let variants = [ true; false ] in
  let results =
    Workload.Adaptive_experiment.run_many ~jobs:!jobs
      (List.map
         (fun adaptive ->
           { Workload.Adaptive_experiment.default_config with adaptive })
         variants)
  in
  List.iter2
    (fun adaptive (r : Workload.Adaptive_experiment.result) ->
      Analysis.Table.add_row t
        [
          (if adaptive then "adaptive re-probe" else "base algorithm");
          string_of_int r.optimal_before_cells;
          string_of_int r.optimal_after_cells;
          Printf.sprintf "%.0f" r.cwnd_at_step;
          (match r.reaction_time with
          | Some x -> Printf.sprintf "%.0fms" (Engine.Time.to_ms_f x)
          | None -> "never");
          Printf.sprintf "%.0f" r.final_cwnd;
        ])
    variants results;
  print_string (Analysis.Table.render t)

(* ------------------------------------------------------------------ *)
(* fig-backprop: every hop's window on one canvas — the paper's
   backpropagation claim, visualised. *)

let fig_backprop () =
  section "Figure (extra): backpropagation — all hop windows, bottleneck 3 hops away";
  let r =
    Workload.Trace_experiment.run
      (trace_config ~strategy:Circuitstart.Controller.Circuit_start ~distance:3)
  in
  let resample = resample_steps ~x_max:800. ~before:2. in
  let glyphs = [| '0'; '1'; '2'; '3' |] in
  let specs =
    List.mapi
      (fun i points ->
        { Analysis.Ascii_plot.label = Printf.sprintf "hop %d window" i;
          glyph = glyphs.(i mod 4); points = resample points })
      r.hop_cwnds
  in
  print_string
    (Analysis.Ascii_plot.render ~x_label:"time [ms]" ~y_label:"cwnd [KB]" specs);
  Printf.printf
    "every hop settles near the propagated minimum (%d cells) without any
     explicit signalling - the paper's backpropagation.
"
    r.propagated_cells;
  write_csv "fig_backprop.csv"
    (Analysis.Csv_out.series_csv
       (List.mapi (fun i p -> (Printf.sprintf "hop%d_kb" i, resample p)) r.hop_cwnds))

(* ------------------------------------------------------------------ *)
(* table-loss: bounded relay queues force drops; hop reliability must
   recover them without losing the figure's properties. *)

let table_loss () =
  section "Table T-loss (extra): bounded link queues (drops + retransmission)";
  let t =
    Analysis.Table.create
      ~columns:[ "queue cap"; "scheme"; "done"; "retx"; "settled"; "ttlb" ]
  in
  let cases =
    List.concat_map
      (fun (label, queue) ->
        List.map
          (fun strategy -> (label, queue, strategy))
          [ Circuitstart.Controller.Circuit_start;
            Circuitstart.Controller.Slow_start ])
      [
        ("unbounded", Netsim.Nqueue.unbounded);
        ("64 pkts", Netsim.Nqueue.packets 64);
        ("16 pkts", Netsim.Nqueue.packets 16);
        ("8 pkts", Netsim.Nqueue.packets 8);
      ]
  in
  let results =
    trace_many
      (List.map
         (fun (_, queue, strategy) ->
           { (trace_config ~strategy ~distance:2) with
             Workload.Trace_experiment.link_queue = queue;
           })
         cases)
  in
  List.iter2
    (fun (label, _, strategy) (r : Workload.Trace_experiment.result) ->
      Analysis.Table.add_row t
        [
          label;
          Workload.Experiment.label strategy;
          (if r.time_to_last_byte <> None then "yes" else "no");
          string_of_int r.retransmissions;
          Printf.sprintf "%.0f" r.settled_cells;
          (match r.time_to_last_byte with
          | Some x -> Analysis.Table.cell_time x
          | None -> "-");
        ])
    cases results;
  print_string (Analysis.Table.render t)

(* ------------------------------------------------------------------ *)
(* table-seeds: is the F1c improvement robust to the random network? *)

let table_seeds () =
  section "Table T-seeds (extra): F1c improvement across random networks";
  let t =
    Analysis.Table.create
      ~columns:[ "seed"; "median with"; "median without"; "gap"; "dominates" ]
  in
  let seeds = [ 1; 2; 3 ] in
  let results =
    star_many
      (List.concat_map
         (fun seed ->
           List.map
             (fun strategy ->
               { (star_config (Workload.Star_experiment.Backtap strategy)) with
                 Workload.Star_experiment.seed;
               })
             [ Circuitstart.Controller.Circuit_start;
               Circuitstart.Controller.Slow_start ])
         seeds)
  in
  let rec pairs = function
    | cs :: ss :: rest -> (cs, ss) :: pairs rest
    | [] -> []
    | _ -> assert false
  in
  let gaps =
    List.map2
      (fun seed ((cs : Workload.Star_experiment.result), (ss : Workload.Star_experiment.result)) ->
        let cdf_cs = Analysis.Cdf.of_samples cs.ttlb_seconds in
        let cdf_ss = Analysis.Cdf.of_samples ss.ttlb_seconds in
        let gap = Analysis.Cdf.horizontal_gap ~better:cdf_cs ~worse:cdf_ss in
        Analysis.Table.add_row t
          [
            string_of_int seed;
            Printf.sprintf "%.2fs" (Analysis.Cdf.quantile cdf_cs 0.5);
            Printf.sprintf "%.2fs" (Analysis.Cdf.quantile cdf_ss 0.5);
            Printf.sprintf "%.2fs" gap;
            string_of_bool (Analysis.Cdf.dominates ~better:cdf_cs ~worse:cdf_ss);
          ];
        gap)
      seeds (pairs results)
  in
  print_string (Analysis.Table.render t);
  Printf.printf "mean gap %.2fs over %d paired networks (paper: 'up to 0.5s')
"
    (List.fold_left ( +. ) 0. gaps /. float_of_int (List.length gaps))
    (List.length gaps)

(* ------------------------------------------------------------------ *)
(* table-cross: unresponsive background load on the bottleneck *)

let table_cross () =
  section "Table T-cross (extra): CBR background load on the bottleneck relay";
  let t =
    Analysis.Table.create
      ~columns:
        [ "CBR load"; "W* (unloaded)"; "fair target"; "settled"; "goodput share";
          "ttlb" ]
  in
  let loads = [ 0.; 0.25; 0.5; 0.75 ] in
  let results =
    Workload.Contention_experiment.run_many ~jobs:!jobs
      (List.map
         (fun load ->
           { Workload.Contention_experiment.default_config with
             cbr_load = load })
         loads)
  in
  List.iter2
    (fun load (r : Workload.Contention_experiment.result) ->
      Analysis.Table.add_row t
        [
          Printf.sprintf "%.0f%%" (load *. 100.);
          string_of_int r.optimal_cells;
          Printf.sprintf "%.0f" r.expected_cells;
          Printf.sprintf "%.0f" r.settled_cells;
          (match r.goodput_share with
          | Some s -> Printf.sprintf "%.0f%%" (s *. 100.)
          | None -> "-");
          (match r.time_to_last_byte with
          | Some x -> Analysis.Table.cell_time x
          | None -> "-");
        ])
    loads results;
  print_string (Analysis.Table.render t);
  print_string
    "Delay-based control settles onto the residual capacity instead of
     fighting the unresponsive flow - 'behave much like background traffic'.
"

(* ------------------------------------------------------------------ *)
(* Paired tables: every startup strategy on the same seed (42, the
   default of Workload.Experiment.compare), so each row differs from
   its neighbours only through the strategy. *)

(* CircuitStart and slow start on every labelled scenario, as one flat
   batch on the pool: one table row per scenario and strategy, labelled
   "<scenario> / <strategy>". *)
let paired_rows (type c r)
    (module X : Workload.Experiment.S with type config = c and type result = r)
    t row scenarios =
  let tasks =
    List.concat_map
      (fun (scenario, config) ->
        List.map
          (fun s ->
            ( scenario ^ " / " ^ Workload.Experiment.label s,
              (42, X.with_strategy s config) ))
          [ Circuitstart.Controller.Circuit_start;
            Circuitstart.Controller.Slow_start ])
      scenarios
  in
  List.iter2
    (fun (label, _) r -> Analysis.Table.add_row t (label :: row r))
    tasks
    (X.run_many ~jobs:!jobs (List.map snd tasks))

(* All three strategies of [config], printed as one row each under
   [columns]. *)
let paired_table (type c r)
    (module X : Workload.Experiment.S with type config = c and type result = r)
    ~columns row config =
  let c = Workload.Experiment.compare (module X) ~jobs:!jobs ~seed:42 config in
  let rows = Workload.Experiment.labelled c in
  let t = Analysis.Table.create ~columns:("strategy" :: columns) in
  List.iter (fun (label, r) -> Analysis.Table.add_row t (label :: row r)) rows;
  print_string (Analysis.Table.render t);
  c

let write_json path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "[json] %s\n" path

(* One line of JSON from already-rendered values, in key order. *)
let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
  ^ "}"

(* The three arms of a paired run, one ["label": object] line each. *)
let json_paired ~indent side c =
  String.concat ",\n"
    (List.map
       (fun (label, r) -> Printf.sprintf "%s\"%s\": %s" indent label (side r))
       (Workload.Experiment.labelled c))

(* ------------------------------------------------------------------ *)
(* table-faults: wire loss on the bottleneck link — does the circuit
   survive, and what does recovery cost each startup scheme? *)

let fault_row (r : Workload.Fault_experiment.result) =
  [
    Workload.Fault_experiment.outcome_to_string r.outcome;
    (match r.time_to_last_byte with
    | Some x -> Analysis.Table.cell_time x
    | None -> "-");
    Printf.sprintf "%.2f" (r.goodput_bps /. 1e6);
    string_of_int r.retransmissions;
    string_of_int r.drops.Netsim.Link.fault_injected;
    (match r.failed_after with
    | Some x -> Analysis.Table.cell_time x
    | None -> "-");
  ]

let fault_table scenarios =
  let t =
    Analysis.Table.create
      ~columns:
        [ "fault"; "outcome"; "ttlb"; "goodput Mbit/s"; "retx"; "wire drops";
          "failed after" ]
  in
  paired_rows (module Workload.Fault_experiment) t fault_row scenarios;
  print_string (Analysis.Table.render t)

let table_faults () =
  section "Table T-faults (extra): wire loss on the bottleneck link (paired seeds)";
  fault_table
    (List.map
       (fun (label, loss) ->
         (label, { Workload.Fault_experiment.default_config with loss }))
       [
         ("clean", None);
         ("0.1% iid", Some (Netsim.Faults.Bernoulli 0.001));
         ("1% iid", Some (Netsim.Faults.Bernoulli 0.01));
         ("5% iid", Some (Netsim.Faults.Bernoulli 0.05));
         ( "burst",
           Some
             (Netsim.Faults.Gilbert_elliott
                { p_good_to_bad = 0.01; p_bad_to_good = 0.2; loss_good = 0.;
                  loss_bad = 0.5 }) );
       ]);
  print_string
    "Both schemes face the identical per-seed loss pattern; hop-by-hop\n\
     retransmission repairs it locally, so loss costs time, not the circuit.\n"

(* ------------------------------------------------------------------ *)
(* table-churn: kill the middle relay mid-transfer — the circuit must
   fail in bounded time, not hang. *)

let table_churn () =
  section "Table T-churn (extra): mid-transfer crash of the middle relay";
  fault_table
    (List.map
       (fun (label, crash_at, outage) ->
         (label, { Workload.Fault_experiment.default_config with crash_at; outage }))
       [
         ("crash@0.3s", Some (Engine.Time.ms 300), None);
         ("outage 0.2-0.6s", None, Some (Engine.Time.ms 200, Engine.Time.ms 600));
       ]);
  print_string
    "An outage is survivable (retransmission bridges it); a crash is not -\n\
     the sender facing the dead relay exhausts its budget and fails the\n\
     circuit instead of retransmitting forever.\n"

(* ------------------------------------------------------------------ *)
(* table-recovery: crash a relay mid-transfer and let the session
   rebuild and resume — paired CircuitStart vs slow start on identical
   crash schedules, for both path-selection policies. *)

let table_recovery () =
  section "Table T-recovery (extra): session rebuild-and-resume after a relay crash";
  let t =
    Analysis.Table.create
      ~columns:
        [ "scenario"; "outcome"; "ttlb"; "rebuilds"; "recovery"; "delivered";
          "dup"; "retx"; "goodput" ]
  in
  let crash =
    { Workload.Overload_experiment.recovery_config with
      crash_at = Some (Engine.Time.ms 300) }
  in
  let seconds = function
    | Some x -> Analysis.Table.cell_time x
    | None -> "-"
  in
  paired_rows
    (module Workload.Overload_experiment)
    t
    (fun (r : Workload.Overload_experiment.result) ->
      let s = List.hd r.per_session in
      [
        Workload.Overload_experiment.outcome_to_string s.outcome;
        seconds r.mean_ttlb;
        string_of_int r.rebuilds;
        seconds (List.nth_opt s.recovery_times 0);
        string_of_int r.delivered_bytes;
        string_of_int r.duplicates;
        string_of_int r.retransmissions;
        Printf.sprintf "%.2f Mbit/s" (r.goodput_bps /. 1e6);
      ])
    [
      ("crash middle@0.3s / bw", crash);
      ("crash guard@0.3s / bw", { crash with crash_position = 1 });
      ( "crash middle@0.3s / uniform",
        { crash with selection = Tor_model.Directory.Uniform } );
      ("no budget (exhausts)", { crash with max_rebuilds = 0 });
    ];
  print_string (Analysis.Table.render t);
  print_string
    "The session detects the dead relay, excludes it, rebuilds over an\n\
     alternate path and resumes at the delivered prefix - no byte crosses\n\
     the wire twice (dup = 0).  With max_rebuilds = 0 it exhausts instead.\n"

(* ------------------------------------------------------------------ *)
(* table-overload: flash crowd against budgeted relays — admission
   refusals, OOM circuit kills, and the cost of the startup strategy
   under contention. *)

let table_overload () =
  section "Table T-overload (extra): flash crowd against budgeted relays";
  ignore
    (paired_table
       (module Workload.Overload_experiment)
       ~columns:
         [ "done"; "refused"; "rate"; "oom"; "rebuilds"; "mean ttlb"; "goodput";
           "relay hwm" ]
       (fun (r : Workload.Overload_experiment.result) ->
         [
           Printf.sprintf "%d/%d" r.completed r.sessions;
           string_of_int r.refusals;
           Printf.sprintf "%.0f%%" (r.refusal_rate *. 100.);
           string_of_int r.oom_kills;
           string_of_int r.rebuilds;
           (match r.mean_ttlb with
           | Some x -> Analysis.Table.cell_time x
           | None -> "-");
           Printf.sprintf "%.2f Mbit/s" (r.goodput_bps /. 1e6);
           Format.asprintf "%a" Engine.Units.pp_bytes r.relay_byte_hwm;
         ])
       Workload.Overload_experiment.default_config);
  print_string
    "Budgeted relays refuse CREATEs while overloaded (the session redraws\n\
     without excluding them) and destroy their heaviest circuit when the\n\
     byte budget overflows - the crowd degrades, it does not collapse.\n"

(* ------------------------------------------------------------------ *)
(* The consensus-scale round-level workload: table-network,
   table-churn-scale and table-predictive each print a paired table at
   the default population, then run one full-scale configuration whose
   throughput and allocation rate are the headline metrics of
   BENCH_pr7.json, BENCH_pr8.json and BENCH_pr10.json (which
   bench/trajectory.exe gates against the blessed floors in
   bench/perf_floors.txt). *)

(* nan when a run completed nothing, printed as such. *)
let ttlb_quantiles sk =
  List.map
    (fun p -> Option.value ~default:nan (Engine.Stats.Sketch.quantile_opt sk p))
    [ 0.5; 0.9; 0.99 ]

let ttlb_cells (r : Workload.Network_experiment.result) =
  List.map (Printf.sprintf "%.3fs") (ttlb_quantiles r.ttlb_all)

let network_table ~columns row config =
  paired_table (module Workload.Network_experiment) ~columns row config

let print_gap ?(suffix = "") (c : Workload.Network_experiment.result Workload.Experiment.paired) =
  Printf.printf
    "largest horizontal gap (CircuitStart earlier by): %.3fs over %d paired \
     lifetimes%s\n"
    (Analysis.Cdf.horizontal_gap
       ~better:(Analysis.Cdf.of_sketch c.circuit_start.ttlb_all)
       ~worse:(Analysis.Cdf.of_sketch c.slow_start.ttlb_all))
    c.circuit_start.completed suffix

let full_scale (c : Workload.Network_experiment.config) =
  { c with
    Workload.Network_experiment.relays = 2_000;
    slots = 100_000;
    target_lifetimes = 1_000_000;
    mean_think = Engine.Time.ms 200;
  }

(* BENCH_pr<pr>.json: the scale run's headline metrics first and
   exactly once (the trajectory gate's key scanner takes the first
   occurrence), then its counts, then the paired runs [c] of [paired].
   Churned configs report churn counters in place of the abandoned,
   rounds and recycle counts; a scale run that is not CircuitStart's
   names its strategy. *)
let write_network_json path ~pr ~(paired : Workload.Network_experiment.config)
    c ~(config : Workload.Network_experiment.config)
    (scale : Workload.Network_experiment.result) ~seconds ~minor_words =
  let churn = paired.leave_hazard > 0. || paired.join_hazard > 0. in
  let int = string_of_int in
  let ttlb (r : Workload.Network_experiment.result) =
    List.map2
      (fun k x -> (k, Printf.sprintf "%.6f" x))
      [ "ttlb_p50_s"; "ttlb_p90_s"; "ttlb_p99_s" ]
      (ttlb_quantiles r.ttlb_all)
  in
  let churn_counts (r : Workload.Network_experiment.result) =
    [ ("kills", int r.churn_kills); ("resumed", int r.resumed);
      ("gone_draws", int r.gone_draws);
      ("draining_refusals", int r.draining_refusals) ]
  in
  let side (r : Workload.Network_experiment.result) =
    json_object
      ([ ("completed", int r.completed); ("arrivals", int r.arrivals);
         ("refused", int r.refused_arrivals) ]
      @ (if churn then churn_counts r else [ ("abandoned", int r.abandoned) ])
      @ ttlb r
      @ (if churn then [] else [ ("rounds", int r.rounds) ])
      @ [ ("sim_events", int r.wall_events) ])
  in
  let scale_fields =
    (if config.strategy = Circuitstart.Controller.Circuit_start then []
     else
       [ ("strategy",
          Printf.sprintf "\"%s\"" (Workload.Experiment.label config.strategy))
       ])
    @ [ ("relays", int scale.relays); ("slots", int scale.slots);
        ("completed", int scale.completed);
        ("peak_active", int scale.peak_active) ]
    @ (if churn then
         [ ("departs", int scale.churn_departs);
           ("crashes", int scale.churn_crashes);
           ("drains", int scale.churn_drains_completed);
           ("restarts", int scale.churn_restarts);
           ("epochs", int scale.churn_epochs) ]
         @ churn_counts scale
       else [ ("pool_recycles", int scale.pool_recycles) ])
    @ [ ("seconds", Printf.sprintf "%.3f" seconds);
        ("sim_events", int scale.wall_events) ]
    @ ttlb scale
  in
  write_json path
    (Printf.sprintf
       "{\n\
       \  \"pr\": %d,\n\
       \  \"jobs\": %d,\n\
       \  \"events_per_sec\": %.1f,\n\
       \  \"minor_words_per_event\": %.4f,\n\
       \  \"scale\": %s,\n\
       \  \"paired\": {\"relays\": %d, \"slots\": %d, \"lifetimes\": %d,\n\
        %s}\n\
        }\n"
       pr !jobs
       (if seconds > 0. then float_of_int scale.wall_events /. seconds else 0.)
       (if scale.wall_events > 0 then
          minor_words /. float_of_int scale.wall_events
        else 0.)
       (json_object scale_fields) paired.relays paired.slots
       (Workload.Network_experiment.lifetimes_goal paired)
       (json_paired ~indent:"    " side c))

(* One full-scale run of [config], sequential on the main domain so the
   minor-GC counter is attributable to this run alone, reported next
   to the paired runs [c] of [paired] in BENCH_pr<pr>.json. *)
let scale_run ~pr ~paired c config =
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let scale = Workload.Network_experiment.run ~seed:7 config in
  let seconds = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  Format.printf "scale: %a@." Workload.Network_experiment.pp_result scale;
  Printf.printf
    "scale: %.1fs wall, %d events, %.0f events/sec, %.2f minor words/event\n"
    seconds scale.wall_events
    (float_of_int scale.wall_events /. seconds)
    (minor_words /. float_of_int scale.wall_events);
  write_network_json
    (Printf.sprintf "BENCH_pr%d.json" pr)
    ~pr ~paired c ~config scale ~seconds ~minor_words

(* PR 9: the sharded-engine speedup probe.  The same consensus-scale
   workload once per shard count (1, 2, 4).  The digests must agree
   byte-for-byte — the shard count chooses how the schedule executes,
   never what it computes — and the wall-clock ratios of the 1-shard
   run over the k-shard runs are the headline speedups of
   BENCH_pr9.json.  On hosts with fewer cores than shards the ratios
   record honest slowdowns; the speedup floors carry min-cores markers
   so the trajectory gate skips them there and enforces them on the
   multi-core reference runner. *)

let result_digest (r : Workload.Network_experiment.result) =
  Digest.to_hex (Digest.string (Marshal.to_string r []))

let write_shard_json path ~(config : Workload.Network_experiment.config)
    ~(s4 : Workload.Network_experiment.result) ~s1_s ~s2_s ~s4_s
    ~words4 ~digest =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"pr\": 9,\n  \"host_cores\": %d,\n"
       (Domain.recommended_domain_count ()));
  (* Headline metrics first and exactly once (the gate's key scanner
     takes the first occurrence): throughput and allocation rate of
     the 4-shard run, then the 1-shard-over-k-shard wall-clock
     ratios. *)
  Buffer.add_string buf
    (Printf.sprintf "  \"events_per_sec\": %.1f,\n"
       (if s4_s > 0. then float_of_int s4.wall_events /. s4_s else 0.));
  Buffer.add_string buf
    (Printf.sprintf "  \"minor_words_per_event\": %.4f,\n"
       (if s4.wall_events > 0 then words4 /. float_of_int s4.wall_events
        else 0.));
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_2\": %.4f,\n  \"speedup_4\": %.4f,\n"
       (if s2_s > 0. then s1_s /. s2_s else 0.)
       (if s4_s > 0. then s1_s /. s4_s else 0.));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"shard_probe\": {\"relays\": %d, \"slots\": %d, \"lifetimes\": %d, \
        \"shard1_seconds\": %.3f, \"shard2_seconds\": %.3f, \
        \"shard4_seconds\": %.3f, \"sim_events\": %d, \"digest\": \"%s\"}\n"
       config.relays config.slots
       (Workload.Network_experiment.lifetimes_goal config)
       s1_s s2_s s4_s s4.wall_events digest);
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[json] %s\n" path

let shard_probe () =
  section "Sharded-engine speedup probe (BENCH_pr9.json)";
  let config =
    { Workload.Network_experiment.default_config with
      relays = 2_000;
      slots = 100_000;
      target_lifetimes = 500_000;
      mean_think = Engine.Time.ms 200;
    }
  in
  let timed_run shards =
    let config = { config with Workload.Network_experiment.shards } in
    let t0 = Unix.gettimeofday () in
    let r, words =
      Workload.Network_experiment.run_instrumented ~seed:7 config
    in
    let seconds = Unix.gettimeofday () -. t0 in
    (r, seconds, words)
  in
  let s1, s1_s, _ = timed_run 1 in
  let s2, s2_s, _ = timed_run 2 in
  let s4, s4_s, words4 = timed_run 4 in
  let d1 = result_digest s1 in
  let d2 = result_digest s2 in
  let d4 = result_digest s4 in
  if d1 <> d2 || d1 <> d4 then
    failwith
      (Printf.sprintf
         "shard probe: sharded results diverge (shards=1 %s, shards=2 %s, \
          shards=4 %s)"
         d1 d2 d4);
  Printf.printf
    "shards=1: %.1fs (%d done)  shards=2: %.1fs (%.2fx)  shards=4: %.1fs \
     (%.2fx)  digests agree (%d cores)\n"
    s1_s s1.completed s2_s
    (if s2_s > 0. then s1_s /. s2_s else 0.)
    s4_s
    (if s4_s > 0. then s1_s /. s4_s else 0.)
    (Domain.recommended_domain_count ());
  write_shard_json "BENCH_pr9.json" ~config ~s4 ~s1_s ~s2_s ~s4_s
    ~words4 ~digest:d1

let table_network () =
  section
    "Table T-network (extra): consensus-scale round-level workload (paired + \
     full scale)";
  let paired = Workload.Network_experiment.default_config in
  let c =
    network_table
      ~columns:
        [ "done"; "arrivals"; "abandoned"; "p50 ttlb"; "p90 ttlb"; "p99 ttlb";
          "rounds"; "peak live" ]
      (fun r ->
        [ string_of_int r.completed; string_of_int r.arrivals;
          string_of_int r.abandoned ]
        @ ttlb_cells r
        @ [ string_of_int r.rounds; string_of_int r.peak_active ])
      paired
  in
  print_gap c;
  scale_run ~pr:7 ~paired c (full_scale paired);
  shard_probe ()

(* ------------------------------------------------------------------ *)
(* table-churn-scale: the same workload with the relay churn schedule
   switched on, so the churn machinery can never silently eat the
   round-level hot path. *)

(* The churn knobs shared by the paired and the scale run: a 2%/s
   departure hazard against a 10%/s rejoin hazard keeps ~83% of the
   population up in steady state, with half the departures crashing and
   half draining over a 2 s grace, under a 5 s consensus epoch. *)
let churn_knobs (c : Workload.Network_experiment.config) =
  { c with
    Workload.Network_experiment.leave_hazard = 0.02;
    join_hazard = 0.1;
    crash_fraction = 0.5;
    drain_grace = Engine.Time.s 2;
    epoch_period = Engine.Time.s 5;
    churn_tick = Engine.Time.s 1;
    spare_relays = c.relays / 10;
  }

let table_churn_scale () =
  section
    "Table T-churn-scale (extra): consensus-scale workload under relay churn \
     (paired + full scale)";
  let paired = churn_knobs Workload.Network_experiment.default_config in
  let c =
    network_table
      ~columns:
        [ "done"; "arrivals"; "kills"; "resumed"; "gone"; "drain-ref";
          "p50 ttlb"; "p90 ttlb"; "p99 ttlb" ]
      (fun r ->
        List.map string_of_int
          [ r.completed; r.arrivals; r.churn_kills; r.resumed; r.gone_draws;
            r.draining_refusals ]
        @ ttlb_cells r)
      paired
  in
  print_gap ~suffix:" under churn" c;
  let cs = c.circuit_start in
  Printf.printf
    "churn: %d departs (%d crashes, %d drains done), %d restarts, %d epochs, \
     %d kills -> %d resumed\n"
    cs.churn_departs cs.churn_crashes cs.churn_drains_completed
    cs.churn_restarts cs.churn_epochs cs.churn_kills cs.resumed;
  scale_run ~pr:8 ~paired c
    (churn_knobs (full_scale Workload.Network_experiment.default_config))

(* ------------------------------------------------------------------ *)
(* table-predictive: the predictive receding-horizon controller under
   the consensus-scale workload — planning stays off the per-feedback
   hot path: the planner runs once per round and its commit is
   allocation-free. *)

let table_predictive () =
  section
    "Table T-predictive (extra): receding-horizon controller, three-strategy \
     paired + full scale";
  let paired = Workload.Network_experiment.default_config in
  let c =
    network_table
      ~columns:
        [ "done"; "arrivals"; "abandoned"; "p50 ttlb"; "p90 ttlb"; "p99 ttlb";
          "rounds" ]
      (fun r ->
        [ string_of_int r.completed; string_of_int r.arrivals;
          string_of_int r.abandoned ]
        @ ttlb_cells r
        @ [ string_of_int r.rounds ])
      paired
  in
  scale_run ~pr:10 ~paired c
    (Workload.Network_experiment.with_strategy
       Circuitstart.Controller.Predictive (full_scale paired))

(* ------------------------------------------------------------------ *)

let all_targets =
  [
    ("fig1a", fig1a);
    ("fig1b", fig1b);
    ("fig1c", fig1c);
    ("table-startup", table_startup);
    ("table-gamma", table_gamma);
    ("table-distance", table_distance);
    ("table-optmodel", table_optmodel);
    ("table-compensation", table_compensation);
    ("table-adaptive", table_adaptive);
    ("fig-backprop", fig_backprop);
    ("table-loss", table_loss);
    ("table-cross", table_cross);
    ("table-seeds", table_seeds);
    ("table-faults", table_faults);
    ("table-churn", table_churn);
    ("table-recovery", table_recovery);
    ("table-overload", table_overload);
    ("table-network", table_network);
    ("table-churn-scale", table_churn_scale);
    ("table-predictive", table_predictive);
  ]

let () =
  let rec parse args acc_names =
    match args with
    | [] -> List.rev acc_names
    | "--out" :: dir :: rest ->
        out_dir := dir;
        parse rest acc_names
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            jobs := j;
            parse rest acc_names
        | _ ->
            prerr_endline "--jobs needs a positive integer";
            exit 2)
    | name :: rest -> parse rest (name :: acc_names)
  in
  let targets =
    match parse (List.tl (Array.to_list Sys.argv)) [] with
    | [] -> List.map snd all_targets
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name all_targets with
            | Some f -> f
            | None ->
                Printf.eprintf "unknown target %s; known: %s\n" name
                  (String.concat ", " (List.map fst all_targets));
                exit 2)
          names
  in
  List.iter (fun f -> f ()) targets
