(* Tests for the analysis toolkit: CDFs, series, plots, tables, CSV. *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Cdf *)

let test_cdf_basics () =
  let cdf = Analysis.Cdf.of_samples [| 1.; 2.; 2.; 4. |] in
  Alcotest.(check int) "count" 4 (Analysis.Cdf.count cdf);
  Alcotest.(check (float 1e-9)) "min" 1. (Analysis.Cdf.min_value cdf);
  Alcotest.(check (float 1e-9)) "max" 4. (Analysis.Cdf.max_value cdf);
  Alcotest.(check (float 1e-9)) "mean" 2.25 (Analysis.Cdf.mean cdf)

let test_cdf_quantiles () =
  let cdf = Analysis.Cdf.of_samples [| 10.; 20.; 30.; 40. |] in
  Alcotest.(check (float 1e-9)) "q0.25" 10. (Analysis.Cdf.quantile cdf 0.25);
  Alcotest.(check (float 1e-9)) "q0.5" 20. (Analysis.Cdf.quantile cdf 0.5);
  Alcotest.(check (float 1e-9)) "q1" 40. (Analysis.Cdf.quantile cdf 1.);
  Alcotest.check_raises "bad q" (Invalid_argument "Cdf.quantile: q must be in [0, 1]")
    (fun () -> ignore (Analysis.Cdf.quantile cdf 1.5))

let test_sketch_empty_guards () =
  let empty = Engine.Stats.Sketch.create ~lo:0. ~hi:10. () in
  (* The partial API still raises... *)
  Alcotest.check_raises "quantile raises on empty"
    (Invalid_argument "Sketch.quantile: empty sketch") (fun () ->
      ignore (Engine.Stats.Sketch.quantile empty 0.5));
  (* ...and the total variants answer None, so report code can print
     "-" for a run that completed nothing instead of dying. *)
  Alcotest.(check bool) "quantile_opt None on empty" true
    (Engine.Stats.Sketch.quantile_opt empty 0.5 = None);
  Alcotest.(check bool) "of_sketch_opt None on empty" true
    (Analysis.Cdf.of_sketch_opt empty = None);
  Engine.Stats.Sketch.add empty 3.;
  (match Engine.Stats.Sketch.quantile_opt empty 0.5 with
  | Some q ->
      Alcotest.(check (float 1e-9)) "quantile_opt = quantile once non-empty"
        (Engine.Stats.Sketch.quantile empty 0.5)
        q
  | None -> Alcotest.fail "quantile_opt None on a non-empty sketch");
  match Analysis.Cdf.of_sketch_opt empty with
  | Some cdf ->
      (* One sample: the curve is clamped to the exact observed
         extremes, so it collapses onto the sample. *)
      Alcotest.(check (float 1e-9)) "of_sketch_opt min" 3.
        (Analysis.Cdf.min_value cdf);
      Alcotest.(check (float 1e-9)) "of_sketch_opt max" 3.
        (Analysis.Cdf.max_value cdf)
  | None -> Alcotest.fail "of_sketch_opt None on a non-empty sketch"

let test_cdf_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Cdf.of_samples: empty") (fun () ->
      ignore (Analysis.Cdf.of_samples [||]));
  Alcotest.check_raises "nan" (Invalid_argument "Cdf.of_samples: non-finite") (fun () ->
      ignore (Analysis.Cdf.of_samples [| Float.nan |]))

let test_cdf_gap_and_dominance () =
  let fast = Analysis.Cdf.of_samples (Array.init 100 (fun i -> float_of_int i)) in
  let slow = Analysis.Cdf.of_samples (Array.init 100 (fun i -> float_of_int i +. 0.5)) in
  Alcotest.(check (float 1e-6)) "gap 0.5" 0.5 (Analysis.Cdf.horizontal_gap ~better:fast ~worse:slow);
  Alcotest.(check bool) "dominates" true (Analysis.Cdf.dominates ~better:fast ~worse:slow);
  Alcotest.(check bool) "reverse does not" false (Analysis.Cdf.dominates ~better:slow ~worse:fast);
  Alcotest.(check bool) "reverse gap negative" true
    (Analysis.Cdf.horizontal_gap ~better:slow ~worse:fast < 0.)

let prop_quantile_monotone =
  QCheck2.Test.make ~name:"quantile is monotone in q"
    QCheck2.Gen.(list_size (int_range 2 100) (float_range 0. 1000.))
    (fun xs ->
      let cdf = Analysis.Cdf.of_samples (Array.of_list xs) in
      let qs = [ 0.1; 0.3; 0.5; 0.7; 0.9 ] in
      let vals = List.map (Analysis.Cdf.quantile cdf) qs in
      let rec mono = function
        | a :: (b :: _ as r) -> a <= b && mono r
        | _ -> true
      in
      mono vals)

let prop_fraction_below_quantile =
  QCheck2.Test.make ~name:"fraction_below (quantile q) >= q"
    QCheck2.Gen.(
      pair (list_size (int_range 1 50) (float_range 0. 100.)) (float_range 0.01 1.))
    (fun (xs, q) ->
      let cdf = Analysis.Cdf.of_samples (Array.of_list xs) in
      let x = Analysis.Cdf.quantile cdf q in
      let below = List.length (List.filter (fun v -> v <= x) xs) in
      float_of_int below /. float_of_int (List.length xs) >= q -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Series *)

let test_series_conversions () =
  let ts = Engine.Timeseries.create () in
  Engine.Timeseries.record ts (Engine.Time.ms 100) 10.;
  Engine.Timeseries.record ts (Engine.Time.ms 200) 20.;
  let s =
    Analysis.Series.resampled ts ~step:(Engine.Time.ms 100) ~stop:(Engine.Time.ms 200)
      ~x_of:Analysis.Series.ms_of_time
      ~y_of:(Analysis.Series.kb_of_cells ~cell_size:512)
  in
  Alcotest.(check int) "points" 3 (Array.length s);
  Alcotest.(check (float 1e-9)) "x in ms" 100. (fst s.(1));
  Alcotest.(check (float 1e-9)) "y in kB" 5.12 (snd s.(1));
  Alcotest.(check (float 1e-9)) "y max" 10.24 (Analysis.Series.y_max s)

let test_series_constant () =
  let s = Analysis.Series.constant ~x_max:100. ~step:25. 7. in
  Alcotest.(check int) "five points" 5 (Array.length s);
  Array.iter (fun (_, y) -> Alcotest.(check (float 1e-9)) "flat" 7. y) s;
  Alcotest.check_raises "bad step" (Invalid_argument "Series.constant: step must be positive")
    (fun () -> ignore (Analysis.Series.constant ~x_max:1. ~step:0. 1.))

(* ------------------------------------------------------------------ *)
(* Ascii plot *)

let test_ascii_plot_renders () =
  let spec =
    { Analysis.Ascii_plot.label = "demo"; glyph = '*';
      points = Array.init 20 (fun i -> (float_of_int i, float_of_int (i * i))) }
  in
  let out = Analysis.Ascii_plot.render ~width:40 ~height:10 ~x_label:"t" ~y_label:"v" [ spec ] in
  Alcotest.(check bool) "contains glyph" true (String.contains out '*');
  Alcotest.(check bool) "contains legend" true (contains out "demo")

let test_ascii_plot_empty () =
  Alcotest.(check string) "note" "(no data to plot)\n" (Analysis.Ascii_plot.render [])

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Analysis.Table.create ~columns:[ "name"; "value" ] in
  Analysis.Table.add_row t [ "alpha"; "1.000" ];
  Analysis.Table.add_row t [ "b"; "22.500" ];
  let out = Analysis.Table.render t in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + rule + 2 rows + trailing" 5 (List.length lines);
  Alcotest.(check bool) "first is header" true
    (String.length (List.nth lines 0) > 0 && String.sub (List.nth lines 0) 0 4 = "name")

let test_table_errors () =
  let t = Analysis.Table.create ~columns:[ "a" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Analysis.Table.add_row t [ "x"; "y" ]);
  Alcotest.check_raises "no columns" (Invalid_argument "Table.create: no columns")
    (fun () -> ignore (Analysis.Table.create ~columns:[]))

let test_table_cells () =
  Alcotest.(check string) "time" "0.250s" (Analysis.Table.cell_time (Engine.Time.ms 250))

(* ------------------------------------------------------------------ *)
(* CSV *)

let test_series_csv () =
  let csv = Analysis.Csv_out.series_csv [ ("s1", [| (1., 2.) |]) ] in
  Alcotest.(check string) "format" "series,x,y\ns1,1.000000,2.000000\n" csv

let test_cdf_csv () =
  let cdf = Analysis.Cdf.of_samples [| 1.; 2. |] in
  let csv = Analysis.Csv_out.cdf_csv [ ("c", cdf) ] in
  Alcotest.(check string) "format"
    "series,value,fraction\nc,1.000000,0.500000\nc,2.000000,1.000000\n" csv

let test_write_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "circuitstart_test/x/y.csv" in
  Analysis.Csv_out.write_file ~path "hello\n";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "roundtrip" "hello" line

(* ------------------------------------------------------------------ *)
(* Gnuplot *)

let test_gnuplot_series_script () =
  let gp =
    Analysis.Gnuplot.series_script ~csv_file:"x.csv" ~title:"t" ~x_label:"x" ~y_label:"y"
      ~series:[ "a"; "b" ]
  in
  Alcotest.(check bool) "mentions csv" true (contains gp "x.csv");
  Alcotest.(check bool) "plots both series" true
    (contains gp "'a'" || contains gp "\"a\"");
  Alcotest.(check bool) "one plot statement" true (contains gp "plot ")

let test_gnuplot_cdf_script () =
  let gp = Analysis.Gnuplot.cdf_script ~csv_file:"c.csv" ~title:"t" ~x_label:"x" ~series:[ "s" ] in
  Alcotest.(check bool) "yrange clamped" true (contains gp "set yrange [0:1]")

(* ------------------------------------------------------------------ *)
(* Fairness *)

let test_jain_known () =
  Alcotest.(check (float 1e-9)) "perfectly even" 1.
    (Analysis.Fairness.jain_index [| 5.; 5.; 5.; 5. |]);
  Alcotest.(check (float 1e-9)) "one hog" 0.25
    (Analysis.Fairness.jain_index [| 1.; 0.; 0.; 0. |]);
  Alcotest.(check (float 1e-9)) "half-half" 0.5
    (Analysis.Fairness.jain_index [| 1.; 1.; 0.; 0. |])

let test_jain_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Fairness.jain_index: empty")
    (fun () -> ignore (Analysis.Fairness.jain_index [||]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Fairness.jain_index: all-zero allocation") (fun () ->
      ignore (Analysis.Fairness.jain_index [| 0.; 0. |]));
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore (Analysis.Fairness.jain_index [| 1.; -1. |]);
       false
     with Invalid_argument _ -> true)

let test_throughputs () =
  let tp = Analysis.Fairness.throughputs_bytes_per_sec ~bytes_each:1000 [| 2.; 4. |] in
  Alcotest.(check (array (float 1e-9))) "bytes/s" [| 500.; 250. |] tp

let prop_jain_bounds =
  QCheck2.Test.make ~name:"Jain index lies in [1/n, 1]"
    QCheck2.Gen.(list_size (int_range 1 50) (float_range 0.01 100.))
    (fun xs ->
      let arr = Array.of_list xs in
      let j = Analysis.Fairness.jain_index arr in
      let n = float_of_int (Array.length arr) in
      j >= (1. /. n) -. 1e-9 && j <= 1. +. 1e-9)

(* ------------------------------------------------------------------ *)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_quantile_monotone; prop_fraction_below_quantile; prop_jain_bounds ]

let () =
  Alcotest.run "analysis"
    [
      ( "cdf",
        [
          Alcotest.test_case "basics" `Quick test_cdf_basics;
          Alcotest.test_case "quantiles" `Quick test_cdf_quantiles;
          Alcotest.test_case "errors" `Quick test_cdf_errors;
          Alcotest.test_case "empty sketch guards" `Quick
            test_sketch_empty_guards;
          Alcotest.test_case "gap and dominance" `Quick test_cdf_gap_and_dominance;
        ] );
      ( "series",
        [
          Alcotest.test_case "conversions" `Quick test_series_conversions;
          Alcotest.test_case "constant" `Quick test_series_constant;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "renders" `Quick test_ascii_plot_renders;
          Alcotest.test_case "empty" `Quick test_ascii_plot_empty;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "errors" `Quick test_table_errors;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "gnuplot",
        [
          Alcotest.test_case "series script" `Quick test_gnuplot_series_script;
          Alcotest.test_case "cdf script" `Quick test_gnuplot_cdf_script;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "jain known values" `Quick test_jain_known;
          Alcotest.test_case "jain errors" `Quick test_jain_errors;
          Alcotest.test_case "throughputs" `Quick test_throughputs;
        ] );
      ( "csv",
        [
          Alcotest.test_case "series csv" `Quick test_series_csv;
          Alcotest.test_case "cdf csv" `Quick test_cdf_csv;
          Alcotest.test_case "write file" `Quick test_write_file;
        ] );
      ("properties", qtests);
    ]
