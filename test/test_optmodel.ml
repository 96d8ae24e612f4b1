(* Tests for the analytic optimal-window model. *)

let time = Alcotest.testable Engine.Time.pp Engine.Time.equal

let spec mbit delay_ms =
  { Optmodel.Path_model.rate = Engine.Units.Rate.mbit mbit;
    access_delay = Engine.Time.ms delay_ms }

let homogeneous = [ spec 100 10; spec 3 10; spec 50 10; spec 50 10; spec 100 10 ]

let test_path_model_basics () =
  let p = Optmodel.Path_model.of_specs homogeneous in
  Alcotest.(check int) "nodes" 5 (Optmodel.Path_model.node_count p);
  Alcotest.(check int) "hops" 4 (Optmodel.Path_model.hop_count p);
  Alcotest.(check int) "rates" 5 (List.length (Optmodel.Path_model.rates p));
  Alcotest.check_raises "too short" (Invalid_argument "Path_model.of_specs: need at least two nodes")
    (fun () -> ignore (Optmodel.Path_model.of_specs [ spec 1 1 ]));
  Alcotest.check_raises "spec out of range" (Invalid_argument "Path_model.spec: out of range")
    (fun () -> ignore (Optmodel.Path_model.spec p 5))

let test_bottleneck () =
  let p = Optmodel.Path_model.of_specs homogeneous in
  Alcotest.(check int) "bottleneck rate" 3_000_000
    (Engine.Units.Rate.to_bps (Optmodel.Optimal_window.bottleneck_rate p));
  Alcotest.(check int) "bottleneck position" 1
    (Optmodel.Optimal_window.bottleneck_position p)

let test_hop_rtt_out_of_range () =
  let p = Optmodel.Path_model.of_specs [ spec 8 10; spec 8 10 ] in
  Alcotest.check time "hand-computed R_0"
    (Engine.Time.us 41_126)
    (Optmodel.Optimal_window.hop_feedback_rtt p 0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Optimal_window.hop_feedback_rtt: hop out of range") (fun () ->
      ignore (Optmodel.Optimal_window.hop_feedback_rtt p 1))

let test_custom_sizes () =
  let p = Optmodel.Path_model.of_specs [ spec 8 10; spec 8 10 ] in
  let small = Optmodel.Optimal_window.hop_window_cells ~cell_size:100 ~feedback_size:10 p 0 in
  let big = Optmodel.Optimal_window.hop_window_cells ~cell_size:1000 ~feedback_size:10 p 0 in
  Alcotest.(check bool) "smaller cells, more of them" true (small > big)

let test_propagated_estimate () =
  (* Homogeneous delays: the propagated minimum equals W*_0 up to hop
     asymmetry in rates. *)
  let p = Optmodel.Path_model.of_specs homogeneous in
  let w0 = Optmodel.Optimal_window.source_window_cells p in
  let prop = Optmodel.Optimal_window.propagated_estimate_cells p in
  Alcotest.(check bool) "propagated <= source" true (prop <= w0);
  Alcotest.(check bool) "same ballpark" true (prop >= (w0 * 3) / 4);
  (* Heterogeneous delays: backprop can underestimate (the paper's
     caveat): make a middle hop's loop much shorter. *)
  let hetero = [ spec 100 30; spec 10 30; spec 50 1; spec 50 1; spec 100 30 ] in
  let p2 = Optmodel.Path_model.of_specs hetero in
  Alcotest.(check bool) "underestimates with uneven delays" true
    (Optmodel.Optimal_window.propagated_estimate_cells p2
    < Optmodel.Optimal_window.source_window_cells p2)

(* Reference formulas for a two-node path, computed independently in
   float arithmetic: the hop-0 feedback loop is both propagation delays
   twice, plus one 520 B cell and one 43 B feedback serialization at
   each node; the window is the loop's bandwidth-delay product at the
   bottleneck, in ceil'd cells.  These subsume the old single
   hand-computed example (8 Mbit, 10 ms -> 41.126 ms -> 80 cells). *)

let gen_two_node_path =
  QCheck2.Gen.(
    pair (pair (int_range 1 100) (int_range 1 100))
      (pair (int_range 0 50) (int_range 0 50)))

let reference_rtt_s (m0, m1) (d0, d1) =
  let ser bytes mbit = float_of_int (bytes * 8) /. (float_of_int mbit *. 1e6) in
  (2. *. float_of_int (d0 + d1) /. 1e3)
  +. ser 520 m0 +. ser 520 m1 +. ser 43 m0 +. ser 43 m1

let prop_hop_rtt_matches_closed_form =
  QCheck2.Test.make ~name:"hop_feedback_rtt matches the closed form"
    gen_two_node_path
    (fun ((m0, m1), (d0, d1)) ->
      let p = Optmodel.Path_model.of_specs [ spec m0 d0; spec m1 d1 ] in
      let got =
        Engine.Time.to_sec_f (Optmodel.Optimal_window.hop_feedback_rtt p 0)
      in
      Float.abs (got -. reference_rtt_s (m0, m1) (d0, d1)) < 1e-6)

let prop_window_cells_match_closed_form =
  QCheck2.Test.make ~name:"hop_window_cells matches ceil(BDP / cell)"
    gen_two_node_path
    (fun ((m0, m1), (d0, d1)) ->
      let p = Optmodel.Path_model.of_specs [ spec m0 d0; spec m1 d1 ] in
      let rate_bytes_per_s = float_of_int (Stdlib.min m0 m1) *. 1e6 /. 8. in
      let reference =
        int_of_float
          (Float.ceil (rate_bytes_per_s *. reference_rtt_s (m0, m1) (d0, d1) /. 520.))
      in
      let got = Optmodel.Optimal_window.hop_window_cells p 0 in
      (* One cell of slack: the implementation rounds in integer
         nanoseconds, the reference in float seconds, and the two can
         land on opposite sides of a ceil boundary. *)
      abs (got - reference) <= 1
      && Optmodel.Optimal_window.source_window_cells p = got)

let prop_window_monotone_in_rate =
  QCheck2.Test.make ~name:"optimal window grows with bottleneck rate"
    QCheck2.Gen.(pair (int_range 1 40) (int_range 41 100))
    (fun (slow, fast) ->
      let p r = Optmodel.Path_model.of_specs [ spec 100 10; spec r 10; spec 100 10 ] in
      Optmodel.Optimal_window.source_window_cells (p slow)
      <= Optmodel.Optimal_window.source_window_cells (p fast))

let prop_window_monotone_in_delay =
  QCheck2.Test.make ~name:"optimal window grows with access delay"
    QCheck2.Gen.(pair (int_range 1 50) (int_range 51 150))
    (fun (short, long) ->
      let p d = Optmodel.Path_model.of_specs [ spec 10 d; spec 10 d ] in
      Optmodel.Optimal_window.source_window_cells (p short)
      <= Optmodel.Optimal_window.source_window_cells (p long))

let prop_window_at_least_one =
  QCheck2.Test.make ~name:"optimal window is at least one cell"
    QCheck2.Gen.(pair (int_range 1 100) (int_range 0 50))
    (fun (mbit, d) ->
      let p = Optmodel.Path_model.of_specs [ spec mbit d; spec mbit d ] in
      Optmodel.Optimal_window.source_window_cells p >= 1)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_hop_rtt_matches_closed_form; prop_window_cells_match_closed_form;
      prop_window_monotone_in_rate; prop_window_monotone_in_delay;
      prop_window_at_least_one ]

let () =
  Alcotest.run "optmodel"
    [
      ( "model",
        [
          Alcotest.test_case "path model basics" `Quick test_path_model_basics;
          Alcotest.test_case "bottleneck" `Quick test_bottleneck;
          Alcotest.test_case "hop rtt range check" `Quick test_hop_rtt_out_of_range;
          Alcotest.test_case "custom sizes" `Quick test_custom_sizes;
          Alcotest.test_case "propagated estimate" `Quick test_propagated_estimate;
        ] );
      ("properties", qtests);
    ]
