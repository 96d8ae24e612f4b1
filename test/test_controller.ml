(* Unit and property tests for the CircuitStart controller (the paper's
   core algorithm), driven by synthetic feedback sequences. *)

module C = Circuitstart.Controller
module P = Circuitstart.Params

(* A synthetic feedback driver: deliver [n] feedbacks spaced [gap]
   apart, each reporting [rtt], starting at [from_] (exclusive).
   Returns the instant of the last feedback. *)
let feed ?(window_limited = true) ctrl ~from_ ~gap ~rtt n =
  let now = ref from_ in
  for _ = 1 to n do
    now := Engine.Time.add !now gap;
    C.on_feedback ctrl ~now:!now ~rtt ~window_limited ()
  done;
  !now

let base = Engine.Time.ms 40

(* [t / k], truncated to a whole nanosecond. *)
let div_int (t : Engine.Time.t) k = Engine.Time.ns ((t :> int) / k)

(* Feed whole rounds at a steady clean RTT: each round is [cwnd]
   feedbacks spaced so that one round spans ~one RTT. *)
let clean_round ctrl ~from_ =
  let w = C.cwnd ctrl in
  let gap = div_int base w in
  feed ctrl ~from_ ~gap ~rtt:base w

(* ------------------------------------------------------------------ *)
(* Construction *)

let test_create_validation () =
  Alcotest.(check bool) "bad params rejected" true
    (try
       ignore (C.create ~params:{ P.default with P.gamma = -1. } C.Circuit_start);
       false
     with Invalid_argument _ -> true);
  Alcotest.check_raises "bad fixed window"
    (Invalid_argument "Controller.create: Fixed window must be positive") (fun () ->
      ignore (C.create (C.Fixed 0)))

let test_initial_state () =
  let ctrl = C.create C.Circuit_start in
  Alcotest.(check int) "initial cwnd" 2 (C.cwnd ctrl);
  Alcotest.(check bool) "ramp-up" true (C.phase ctrl = C.Ramp_up);
  Alcotest.(check bool) "no base rtt" true (C.base_rtt ctrl = None);
  Alcotest.(check int) "allowance = initial" 2 (C.send_allowance ctrl)

let test_fixed_strategy () =
  let ctrl = C.create (C.Fixed 17) in
  Alcotest.(check int) "fixed cwnd" 17 (C.cwnd ctrl);
  Alcotest.(check bool) "avoidance from the start" true (C.phase ctrl = C.Avoidance);
  let _ = feed ctrl ~from_:Engine.Time.zero ~gap:(Engine.Time.ms 1) ~rtt:base 200 in
  Alcotest.(check int) "never changes" 17 (C.cwnd ctrl)

let test_rtt_validation () =
  let ctrl = C.create C.Circuit_start in
  Alcotest.check_raises "zero rtt"
    (Invalid_argument "Controller.on_feedback: rtt must be positive") (fun () ->
      C.on_feedback ctrl ~now:(Engine.Time.ms 1) ~rtt:Engine.Time.zero ())

(* ------------------------------------------------------------------ *)
(* Ramp-up: discrete doubling.

   The trajectory itself is property-checked against a tiny reference
   model (see the "reference model" properties below), which subsumes
   the old fixed 2 -> 4 -> 8 -> 16 point example. *)

let test_no_growth_when_not_limited () =
  let ctrl = C.create C.Circuit_start in
  let t = feed ~window_limited:false ctrl ~from_:Engine.Time.zero ~gap:(Engine.Time.ms 20) ~rtt:base 2 in
  Alcotest.(check int) "no doubling without pressure" 2 (C.cwnd ctrl);
  (* A limited round still doubles afterwards. *)
  let _ = feed ctrl ~from_:t ~gap:(Engine.Time.ms 20) ~rtt:base 2 in
  Alcotest.(check int) "doubles once limited" 4 (C.cwnd ctrl)

let test_allowance_interpolates () =
  let ctrl = C.create C.Circuit_start in
  let t = clean_round ctrl ~from_:Engine.Time.zero in
  (* cwnd just doubled to 4; allowance restarts from the old window. *)
  Alcotest.(check int) "cwnd" 4 (C.cwnd ctrl);
  Alcotest.(check int) "allowance = old window" 2 (C.send_allowance ctrl);
  let t = feed ctrl ~from_:t ~gap:(Engine.Time.ms 1) ~rtt:base 1 in
  Alcotest.(check int) "allowance grows by 2 per feedback" 4 (C.send_allowance ctrl);
  let _ = feed ctrl ~from_:t ~gap:(Engine.Time.ms 1) ~rtt:base 1 in
  Alcotest.(check int) "capped at cwnd" 4 (C.send_allowance ctrl)

(* Drive a controller into a saturated regime: rtt inflates in
   proportion to the window beyond [bdp] cells, and the feedback pace
   is capped at [bdp] per base RTT. *)
let saturated_feedback ctrl ~from_ ~bdp n =
  let now = ref from_ in
  for _ = 1 to n do
    let w = C.cwnd ctrl in
    let queue = Stdlib.max 0 (w - bdp) in
    let rtt =
      Engine.Time.add base (Engine.Time.mul_int (div_int base bdp) queue)
    in
    let pace = div_int base (Stdlib.min w bdp) in
    now := Engine.Time.add !now pace;
    C.on_feedback ctrl ~now:!now ~rtt ()
  done;
  !now

let test_exit_and_compensation () =
  let ctrl = C.create C.Circuit_start in
  let bdp = 20 in
  let _ = saturated_feedback ctrl ~from_:Engine.Time.zero ~bdp 600 in
  Alcotest.(check bool) "left ramp-up" true (C.phase ctrl = C.Avoidance);
  Alcotest.(check int) "exactly one exit" 1 (C.ramp_up_exits ctrl);
  (match C.exit_cwnd ctrl with
  | Some e ->
      Alcotest.(check bool)
        (Printf.sprintf "exit %d within [bdp/2, 2*bdp] of %d" e bdp)
        true
        (e >= bdp / 2 && e <= 2 * bdp)
  | None -> Alcotest.fail "exit_cwnd not recorded");
  (* After recalibration + avoidance, the window sits near the BDP. *)
  let w = C.cwnd ctrl in
  Alcotest.(check bool)
    (Printf.sprintf "settled %d near bdp %d" w bdp)
    true
    (w >= bdp - 4 && w <= bdp + 6)

let test_slow_start_baseline_halves () =
  let ctrl = C.create C.Slow_start in
  let bdp = 20 in
  let _ = saturated_feedback ctrl ~from_:Engine.Time.zero ~bdp 200 in
  Alcotest.(check bool) "left ramp-up" true (C.phase ctrl = C.Avoidance);
  match C.exit_cwnd ctrl with
  | Some e ->
      (* Halving from wherever the naive per-sample test fired. *)
      Alcotest.(check bool) (Printf.sprintf "halved exit %d below bdp+2" e) true
        (e <= bdp + 2)
  | None -> Alcotest.fail "exit_cwnd not recorded"

let test_latest_diff_reporting () =
  let ctrl = C.create C.Circuit_start in
  let t = feed ctrl ~from_:Engine.Time.zero ~gap:(Engine.Time.ms 1) ~rtt:base 1 in
  Alcotest.(check (option (float 0.01))) "diff 0 at base rtt" (Some 0.)
    (C.latest_diff ctrl);
  let _ =
    feed ctrl ~from_:t ~gap:(Engine.Time.ms 1) ~rtt:(Engine.Time.mul_int base 2) 1
  in
  (match C.latest_diff ctrl with
  | Some d -> Alcotest.(check bool) "diff = cwnd at 2x rtt" true (Float.abs (d -. 2.) < 0.1)
  | None -> Alcotest.fail "no diff");
  Alcotest.(check (option Alcotest.(float 1.))) "base rtt tracked"
    (Some (Engine.Time.to_ms_f base))
    (Option.map Engine.Time.to_ms_f (C.base_rtt ctrl))

(* ------------------------------------------------------------------ *)
(* Avoidance *)

(* Bring a controller into avoidance at a known window. *)
let into_avoidance ?(params = P.default) () =
  let ctrl = C.create ~params C.Circuit_start in
  let t = saturated_feedback ctrl ~from_:Engine.Time.zero ~bdp:20 600 in
  Alcotest.(check bool) "setup: in avoidance" true (C.phase ctrl = C.Avoidance);
  (ctrl, t)

let test_avoidance_shrinks_on_queue () =
  let ctrl, t = into_avoidance () in
  let w0 = C.cwnd ctrl in
  (* Sustained rtt inflation beyond beta shrinks one cell per round. *)
  let inflated = div_int (Engine.Time.mul_int base 9) 5 in
  let _ = feed ctrl ~from_:t ~gap:(Engine.Time.ms 2) ~rtt:inflated (3 * w0) in
  Alcotest.(check bool)
    (Printf.sprintf "shrank from %d to %d" w0 (C.cwnd ctrl))
    true
    (C.cwnd ctrl < w0)

let test_avoidance_grows_when_calm () =
  let ctrl, t = into_avoidance () in
  let w0 = C.cwnd ctrl in
  let _ = feed ctrl ~from_:t ~gap:(Engine.Time.ms 2) ~rtt:base (3 * w0) in
  Alcotest.(check bool)
    (Printf.sprintf "grew from %d to %d" w0 (C.cwnd ctrl))
    true
    (C.cwnd ctrl > w0)

let test_avoidance_no_growth_unlimited () =
  let ctrl, t = into_avoidance () in
  (* Let any post-exit recalibration settle first, then hold. *)
  let t = feed ctrl ~from_:t ~gap:(Engine.Time.ms 2) ~rtt:base (3 * C.cwnd ctrl) in
  let w0 = C.cwnd ctrl in
  let _ =
    feed ~window_limited:false ctrl ~from_:t ~gap:(Engine.Time.ms 2) ~rtt:base (3 * w0)
  in
  (* One residual round may still have the limited flag from the tail
     of the previous feed; beyond that, no growth. *)
  Alcotest.(check bool)
    (Printf.sprintf "at most one residual growth (%d -> %d)" w0 (C.cwnd ctrl))
    true
    (C.cwnd ctrl <= w0 + 1)

let test_min_cwnd_floor () =
  let ctrl, t = into_avoidance () in
  (* Massive sustained inflation cannot push below the floor. *)
  let awful = Engine.Time.mul_int base 10 in
  let _ = feed ctrl ~from_:t ~gap:(Engine.Time.ms 2) ~rtt:awful 2000 in
  Alcotest.(check bool) "floor respected" true (C.cwnd ctrl >= P.default.P.min_cwnd)

(* ------------------------------------------------------------------ *)
(* Adaptive re-probe (paper future work) *)

let test_adaptive_reprobes () =
  let params = { P.default with P.adaptive = true; re_probe_after = 2 } in
  let ctrl = C.create ~params C.Circuit_start in
  let t = saturated_feedback ctrl ~from_:Engine.Time.zero ~bdp:20 600 in
  (* Plenty of calm, window-limited rounds: must re-enter ramp-up at
     least once beyond the first exit. *)
  let _ = feed ctrl ~from_:t ~gap:(Engine.Time.ms 1) ~rtt:base 1000 in
  Alcotest.(check bool) "re-probed" true
    (C.phase ctrl = C.Ramp_up || C.ramp_up_exits ctrl > 1)

let test_non_adaptive_stays () =
  let ctrl, t = into_avoidance () in
  let _ = feed ctrl ~from_:t ~gap:(Engine.Time.ms 1) ~rtt:base (20 * C.cwnd ctrl) in
  Alcotest.(check int) "single exit, no re-probe" 1 (C.ramp_up_exits ctrl)

let test_fixed_allowance_equals_cwnd () =
  let ctrl = C.create (C.Fixed 9) in
  Alcotest.(check int) "allowance = cwnd for Fixed" 9 (C.send_allowance ctrl)

let test_gamma_boundary_not_exceeded () =
  (* diff exactly at gamma must not trip the queue signal: the test is
     strict inequality. *)
  let params = { P.default with P.gamma = 1000. } in
  let ctrl = C.create ~params C.Circuit_start in
  let _ = saturated_feedback ctrl ~from_:Engine.Time.zero ~bdp:10 300 in
  (* With an absurd gamma the queue path can never fire; only the rate
     stall can end the ramp. *)
  Alcotest.(check bool) "still sane" true (C.cwnd ctrl >= 2)

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_validation () =
  let bad f = match P.validate f with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "min_cwnd 0" true (bad { P.default with P.min_cwnd = 0 });
  Alcotest.(check bool) "initial < min" true
    (bad { P.default with P.initial_cwnd = 1; min_cwnd = 2 });
  Alcotest.(check bool) "max < initial" true (bad { P.default with P.max_cwnd = 1 });
  Alcotest.(check bool) "beta < alpha" true
    (bad { P.default with P.alpha = 5.; beta = 4. });
  Alcotest.(check bool) "gamma 0" true (bad { P.default with P.gamma = 0. });
  Alcotest.(check bool) "default ok" true
    (match P.validate P.default with Ok _ -> true | Error _ -> false);
  Alcotest.(check (float 1e-9)) "with_gamma" 7.5 (P.with_gamma P.default 7.5).P.gamma

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_feedback_script =
  (* A list of (gap_us in [100, 50_000], rtt_ms in [1, 400], limited). *)
  QCheck2.Gen.(
    list_size (int_range 1 400)
      (triple (int_range 100 50_000) (int_range 1 400) bool))

let apply_script strategy script =
  let ctrl = C.create strategy in
  let now = ref Engine.Time.zero in
  List.iter
    (fun (gap_us, rtt_ms, window_limited) ->
      now := Engine.Time.add !now (Engine.Time.us gap_us);
      C.on_feedback ctrl ~now:!now ~rtt:(Engine.Time.ms rtt_ms) ~window_limited ())
    script;
  ctrl

let prop_cwnd_bounded strategy name =
  QCheck2.Test.make ~name gen_feedback_script (fun script ->
      let ctrl = apply_script strategy script in
      C.cwnd ctrl >= P.default.P.min_cwnd && C.cwnd ctrl <= P.default.P.max_cwnd)

let prop_allowance_bounded =
  QCheck2.Test.make ~name:"send allowance never exceeds cwnd" gen_feedback_script
    (fun script ->
      let ctrl = C.create C.Circuit_start in
      let now = ref Engine.Time.zero in
      List.for_all
        (fun (gap_us, rtt_ms, window_limited) ->
          now := Engine.Time.add !now (Engine.Time.us gap_us);
          C.on_feedback ctrl ~now:!now ~rtt:(Engine.Time.ms rtt_ms) ~window_limited ();
          C.send_allowance ctrl <= C.cwnd ctrl && C.send_allowance ctrl >= 1)
        script)

let prop_base_rtt_is_min =
  QCheck2.Test.make ~name:"base rtt is the minimum sample" gen_feedback_script
    (fun script ->
      let ctrl = apply_script C.Circuit_start script in
      match (C.base_rtt ctrl, script) with
      | None, [] -> true
      | Some b, _ :: _ ->
          let min_rtt = List.fold_left (fun acc (_, r, _) -> Stdlib.min acc r) max_int
              (List.map (fun (g, r, l) -> (g, r, l)) script)
          in
          Engine.Time.equal b (Engine.Time.ms min_rtt)
      | _ -> false)

(* --- reference models --------------------------------------------- *)

(* The specified clean-path (queue-free) ramp trajectories, in a few
   lines each: CircuitStart doubles once per completed window-limited
   round, slow start adds one cell per feedback, both clamped to
   [max_cwnd].  Driving the real controller with clean synthetic rounds
   must reproduce these exactly. *)

let ref_circuitstart_cwnd ~rounds =
  let rec go w k =
    if k = 0 then w
    else go (Stdlib.min P.default.P.max_cwnd (2 * w)) (k - 1)
  in
  go P.default.P.initial_cwnd rounds

let ref_slow_start_cwnd ~feedbacks =
  Stdlib.min P.default.P.max_cwnd (P.default.P.initial_cwnd + feedbacks)

let prop_circuitstart_ramp_matches_reference =
  QCheck2.Test.make
    ~name:"clean ramp-up trajectory matches the doubling reference"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 5 200))
    (fun (rounds, base_ms) ->
      let rtt = Engine.Time.ms base_ms in
      let ctrl = C.create C.Circuit_start in
      let t = ref Engine.Time.zero in
      let ok = ref true in
      for k = 1 to rounds do
        let w = C.cwnd ctrl in
        t := feed ctrl ~from_:!t ~gap:(div_int rtt w) ~rtt w;
        ok := !ok && C.cwnd ctrl = ref_circuitstart_cwnd ~rounds:k
      done;
      !ok && C.phase ctrl = C.Ramp_up && C.rounds_completed ctrl = rounds)

let prop_slow_start_ramp_matches_reference =
  QCheck2.Test.make
    ~name:"clean slow-start trajectory matches the +1-per-feedback reference"
    QCheck2.Gen.(pair (int_range 1 300) (int_range 5 200))
    (fun (feedbacks, base_ms) ->
      let ctrl = C.create C.Slow_start in
      let _ =
        feed ctrl ~from_:Engine.Time.zero ~gap:(Engine.Time.ms 1)
          ~rtt:(Engine.Time.ms base_ms) feedbacks
      in
      C.cwnd ctrl = ref_slow_start_cwnd ~feedbacks
      && C.send_allowance ctrl = C.cwnd ctrl)

let prop_exit_compensation_tracks_bdp =
  QCheck2.Test.make
    ~name:"overshoot exit lands within a factor of two of the BDP"
    QCheck2.Gen.(int_range 5 40)
    (fun bdp ->
      let ctrl = C.create C.Circuit_start in
      let _ = saturated_feedback ctrl ~from_:Engine.Time.zero ~bdp 600 in
      C.phase ctrl = C.Avoidance
      && C.ramp_up_exits ctrl = 1
      &&
      match C.exit_cwnd ctrl with
      | Some e -> e >= bdp / 2 && e <= 2 * bdp + 2
      | None -> false)

(* --- predictive reference model ----------------------------------- *)

(* An executable restatement of the predictive planner's spec
   (controller.mli): from window [w], the candidate moves are
   {halve, -1, hold, +1, double} clamped to [min_cwnd, max_cwnd]; the
   chosen move minimizes cost_queue·over² + cost_under·under² against
   the target, ties breaking toward the smaller window; the plan is the
   [horizon]-step greedy unrolling.  Formulated as a list fold rather
   than the implementation's imperative loop, and checked against
   [C.predictive_plan] trajectory-for-trajectory. *)
let ref_predictive_plan ~(params : P.t) ~cwnd ~target =
  let clamp v = Stdlib.min params.P.max_cwnd (Stdlib.max params.P.min_cwnd v) in
  let cost c =
    let over = float_of_int (Stdlib.max 0 (c - target)) in
    let under = float_of_int (Stdlib.max 0 (target - c)) in
    (params.P.cost_queue *. over *. over)
    +. (params.P.cost_under *. under *. under)
  in
  let step w =
    List.fold_left
      (fun best v ->
        let c = clamp v in
        if cost c < cost best then c else best)
      (clamp (w / 2))
      [ w - 1; w; w + 1; 2 * w ]
  in
  List.init (Stdlib.max 1 params.P.horizon) Fun.id
  |> List.fold_left (fun (w, acc) _ -> let w' = step w in (w', w' :: acc)) (cwnd, [])
  |> fun (_, rev) -> Array.of_list (List.rev rev)

let gen_planner_case =
  QCheck2.Gen.(
    let* horizon = int_range 1 12 in
    let* cq = int_range 1 16 in
    let* cu = int_range 1 16 in
    let* cwnd = int_range 1 1_000 in
    let* target = int_range 1 1_000 in
    return (horizon, float_of_int cq /. 4., float_of_int cu /. 4., cwnd, target))

let prop_predictive_plan_matches_reference =
  QCheck2.Test.make
    ~name:"predictive planner matches the executable spec step-for-step"
    gen_planner_case
    (fun (horizon, cost_queue, cost_under, cwnd, target) ->
      let params = { P.default with P.horizon; cost_queue; cost_under } in
      C.predictive_plan ~params ~cwnd ~target
      = ref_predictive_plan ~params ~cwnd ~target)

(* Saturated feedback with per-sample jitter: like [saturated_feedback]
   but every other sample carries +200 us, so each round has RTT
   variance and the predictive link model stays identifiable. *)
let noisy_saturated_feedback ctrl ~from_ ~bdp n =
  let now = ref from_ in
  for i = 1 to n do
    let w = C.cwnd ctrl in
    let queue = Stdlib.max 0 (w - bdp) in
    let rtt =
      Engine.Time.add base
        (Engine.Time.mul_int (div_int base bdp) queue)
    in
    let rtt =
      if i land 1 = 0 then Engine.Time.add rtt (Engine.Time.us 200) else rtt
    in
    let pace = div_int base (Stdlib.min w bdp) in
    now := Engine.Time.add !now pace;
    C.on_feedback ctrl ~now:!now ~rtt ()
  done;
  !now

let prop_predictive_commits_plan_head =
  QCheck2.Test.make
    ~name:"predictive commits exactly the plan's first step until fallback"
    QCheck2.Gen.(int_range 5 40)
    (fun bdp ->
      let ctrl = C.create C.Predictive in
      let law_ok = ref true in
      let seen_gen = ref (C.plan_generation ctrl) in
      C.set_on_change ctrl (fun ~now:_ v ->
          if not (C.fallen_back ctrl) then begin
            let p = C.planned_trajectory ctrl in
            let g = C.plan_generation ctrl in
            if g <= !seen_gen then law_ok := false
            else begin
              seen_gen := g;
              if Array.length p = 0 || v <> p.(0) then law_ok := false
            end
          end);
      let _ = noisy_saturated_feedback ctrl ~from_:Engine.Time.zero ~bdp 600 in
      !law_ok
      && C.phase ctrl = C.Avoidance
      && (not (C.fallen_back ctrl))
      && C.ramp_up_exits ctrl = 1
      && C.cwnd ctrl >= P.default.P.min_cwnd
      && C.cwnd ctrl <= P.default.P.max_cwnd
      &&
      (* The planner walks the window to the modelled BDP. *)
      let w = C.cwnd ctrl in
      w >= bdp / 2 && w <= 2 * bdp + 2)

let prop_predictive_zero_variance_falls_back =
  QCheck2.Test.make
    ~name:"zero-variance rounds trigger permanent fallback to Vegas +-1"
    QCheck2.Gen.(int_range 1 30)
    (fun rounds ->
      (* Constant-RTT clean rounds carry no queueing signal: the very
         first round end is unidentifiable, so the controller drops to
         Avoidance at the initial window and thereafter probes one cell
         per calm round like plain Vegas. *)
      let ctrl = C.create C.Predictive in
      let t = ref Engine.Time.zero in
      for _ = 1 to rounds do
        t := clean_round ctrl ~from_:!t
      done;
      C.fallen_back ctrl
      && C.phase ctrl = C.Avoidance
      && C.cwnd ctrl = P.default.P.initial_cwnd + (rounds - 1))

let test_predictive_horizon_one_degenerates () =
  let params = { P.default with P.horizon = 1 } in
  let ctrl = C.create ~params C.Predictive in
  Alcotest.(check bool) "avoidance from the start" true (C.phase ctrl = C.Avoidance);
  Alcotest.(check bool) "fallen back at create" true (C.fallen_back ctrl);
  let t = clean_round ctrl ~from_:Engine.Time.zero in
  let _ = clean_round ctrl ~from_:t in
  (* Plain Vegas avoidance: one cell per calm window-limited round. *)
  Alcotest.(check int) "+1 per clean round" (P.default.P.initial_cwnd + 2)
    (C.cwnd ctrl)

let test_predictive_params_validation () =
  let bad f = match P.validate f with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "horizon 0" true (bad { P.default with P.horizon = 0 });
  Alcotest.(check bool) "cost_queue 0" true
    (bad { P.default with P.cost_queue = 0. });
  Alcotest.(check bool) "cost_under nan" true
    (bad { P.default with P.cost_under = Float.nan });
  Alcotest.(check bool) "horizon 1 ok" true
    (match P.validate { P.default with P.horizon = 1 } with
    | Ok _ -> true
    | Error _ -> false)

let prop_exit_recorded_once =
  QCheck2.Test.make ~name:"exit_cwnd is stable after the first exit" gen_feedback_script
    (fun script ->
      let ctrl = C.create C.Circuit_start in
      let now = ref Engine.Time.zero in
      let first_exit = ref None in
      List.iter
        (fun (gap_us, rtt_ms, window_limited) ->
          now := Engine.Time.add !now (Engine.Time.us gap_us);
          C.on_feedback ctrl ~now:!now ~rtt:(Engine.Time.ms rtt_ms) ~window_limited ();
          match (!first_exit, C.exit_cwnd ctrl) with
          | None, (Some _ as e) -> first_exit := e
          | _ -> ())
        script;
      !first_exit = C.exit_cwnd ctrl)

(* --- sliding feedback window reference ---------------------------- *)

(* The sliding feedback window as it was kept before it became a ring:
   a deque of feedback instants, trimmed to three baseRtts on every
   feedback and counted with a fold.  Frozen here as the reference the
   ring and its 1-RTT cursor must match. *)
module Ref_window = struct
  type t = { q : Engine.Time.t Queue.t; mutable base : Engine.Time.t option }

  let rate_window_rtts = 3
  let create () = { q = Queue.create (); base = None }

  let on_feedback w ~now ~rtt =
    (match w.base with
    | None -> w.base <- Some rtt
    | Some b -> if Engine.Time.(rtt < b) then w.base <- Some rtt);
    Queue.push now w.q;
    match w.base with
    | Some base ->
        let cutoff = Engine.Time.diff now (Engine.Time.mul_int base rate_window_rtts) in
        let rec drop () =
          match Queue.peek_opt w.q with
          | Some ts when Engine.Time.(ts <= cutoff) ->
              ignore (Queue.pop w.q : Engine.Time.t);
              drop ()
          | Some _ | None -> ()
        in
        drop ()
    | None -> ()

  let count_within w ~now ~rtts =
    match w.base with
    | None -> Queue.length w.q
    | Some base ->
        let cutoff = Engine.Time.diff now (Engine.Time.mul_int base rtts) in
        Queue.fold (fun acc ts -> if Engine.Time.(ts > cutoff) then acc + 1 else acc) 0 w.q

  let sliding_rate_cells w =
    int_of_float
      (Float.round (float_of_int (Queue.length w.q) /. float_of_int rate_window_rtts))
end

(* Monotone feedback streams: gaps of 0 to 20 ms (same-instant bursts
   included), RTTs of 1 to 120 ms, and shrink steps that cut the RTT
   below the running minimum, so the base RTT moves down many times. *)
let gen_monotone_stream =
  QCheck2.Gen.(
    list_size (int_range 1 600)
      (triple (int_range 0 20_000) (int_range 1_000 120_000) (int_range 0 3)))

let prop_window_matches_fold strategy name =
  QCheck2.Test.make ~count:200 ~name gen_monotone_stream (fun stream ->
      let ctrl = C.create strategy in
      let w = Ref_window.create () in
      let now = ref Engine.Time.zero and floor = ref max_int in
      List.for_all
        (fun (gap_us, rtt_us, shrink) ->
          now := Engine.Time.add !now (Engine.Time.us gap_us);
          (* One step in four undercuts the minimum by up to 10%. *)
          let rtt_us =
            if shrink = 0 && !floor < max_int then
              Stdlib.max 1 (!floor - (rtt_us mod ((!floor / 10) + 1)))
            else rtt_us
          in
          floor := Stdlib.min !floor rtt_us;
          let rtt = Engine.Time.us rtt_us in
          C.on_feedback ctrl ~now:!now ~rtt ();
          Ref_window.on_feedback w ~now:!now ~rtt;
          C.rtt_feedbacks ctrl = Ref_window.count_within w ~now:!now ~rtts:1
          && C.sliding_rate_cells ctrl = Ref_window.sliding_rate_cells w)
        stream)

(* Clean rounds whose RTT shrinks by up to 0.5% per round: the window
   signals must keep every strategy on its reference trajectory —
   CircuitStart doubles per round, slow start adds one per feedback,
   and predictive (zero-variance rounds) falls back at the first round
   end and then probes one cell per calm round.  The shrink stays small
   because a controller round straddles two of these rounds, and a
   window of w cells reads a shrink s as a Vegas diff of about w·s:
   past gamma that is a queue signal, and the ramp rightly ends. *)
let prop_traces_match_references =
  QCheck2.Test.make ~count:200
    ~name:"cwnd traces of all three strategies follow the reference folds"
    ~print:QCheck2.Print.(pair int (list int))
    QCheck2.Gen.(pair (int_range 5 200) (list_size (int_range 1 8) (int_range 0 5)))
    (fun (base_ms, shrinks) ->
      let trace strategy =
        let ctrl = C.create strategy in
        let t = ref Engine.Time.zero and rtt = ref (Engine.Time.ms base_ms) in
        let fed = ref 0 in
        List.map
          (fun permille ->
            rtt :=
              Engine.Time.diff !rtt
                (div_int (Engine.Time.mul_int !rtt permille) 1000);
            let w = C.cwnd ctrl in
            t := feed ctrl ~from_:!t ~gap:(div_int !rtt w) ~rtt:!rtt w;
            fed := !fed + w;
            (C.cwnd ctrl, !fed))
          shrinks
      in
      let rounds = List.mapi (fun i _ -> i + 1) shrinks in
      List.map fst (trace C.Circuit_start)
      = List.map (fun k -> ref_circuitstart_cwnd ~rounds:k) rounds
      && List.for_all
           (fun (cwnd, fed) -> cwnd = ref_slow_start_cwnd ~feedbacks:fed)
           (trace C.Slow_start)
      && List.map fst (trace C.Predictive)
         = List.map (fun k -> P.default.P.initial_cwnd + (k - 1)) rounds)

(* ------------------------------------------------------------------ *)
(* The consensus engine's round law *)

module L = C.Round_law

(* Test reference: the window law as [Network_experiment.round] and
   [try_arrival] wrote it inline before it became [Round_law], frozen
   with its phase codes (0 ramp, 1 steady, 2 fixed) and its 10 000-cell
   ceiling.  Returns the next (phase, cwnd). *)
let ref_cwnd_cap = 10_000

let ref_round_step strategy ~phase ~cwnd ~bdp =
  let phase' = ref phase in
  let cwnd' =
    if phase = 2 then cwnd
    else if phase = 0 then
      if cwnd >= bdp then begin
        phase' := 1;
        match strategy with
        | C.Circuit_start | C.Predictive -> bdp
        | C.Slow_start ->
            let h = cwnd / 2 in
            if h < 1 then 1 else h
        | C.Fixed _ -> cwnd
      end
      else begin
        match strategy with
        | C.Predictive ->
            let d = cwnd * 2 in
            let d = if d > bdp then bdp else d in
            if d > ref_cwnd_cap then ref_cwnd_cap else d
        | C.Circuit_start | C.Slow_start | C.Fixed _ ->
            let d = cwnd * 2 in
            if d > ref_cwnd_cap then ref_cwnd_cap else d
      end
    else begin
      match strategy with
      | C.Predictive ->
          if cwnd < bdp then
            let g = (bdp - cwnd) / 2 in
            cwnd + (if g < 1 then 1 else g)
          else if cwnd > bdp then
            let g = (cwnd - bdp) / 2 in
            cwnd - (if g < 1 then 1 else g)
          else cwnd
      | C.Circuit_start | C.Slow_start | C.Fixed _ ->
          if cwnd < bdp then cwnd + 1
          else if cwnd > bdp then cwnd - 1
          else cwnd
    end
  in
  (!phase', cwnd')

let ref_round_initial = function
  | C.Fixed w -> (2, Stdlib.min ref_cwnd_cap (Stdlib.max 1 w))
  | C.Circuit_start | C.Slow_start | C.Predictive -> (0, 1)

let unpack packed = (L.phase packed, L.cwnd packed)

(* Windows and bdps 1..64, and at and above the ceiling. *)
let round_law_domain =
  List.init 64 (fun i -> i + 1)
  @ [ ref_cwnd_cap - 1; ref_cwnd_cap; ref_cwnd_cap + 1; 2 * ref_cwnd_cap ]

let test_round_law_step () =
  List.iter
    (fun strategy ->
      List.iter
        (fun phase ->
          List.iter
            (fun cwnd ->
              List.iter
                (fun bdp ->
                  let want = ref_round_step strategy ~phase ~cwnd ~bdp in
                  let got = unpack (L.step strategy ~phase ~cwnd ~bdp) in
                  if got <> want then
                    Alcotest.failf
                      "%s phase=%d cwnd=%d bdp=%d: got (%d, %d), want (%d, %d)"
                      (Workload.Experiment.label strategy)
                      phase cwnd bdp (fst got) (snd got) (fst want) (snd want))
                round_law_domain)
            round_law_domain)
        [ 0; 1; 2 ])
    [ C.Circuit_start; C.Slow_start; C.Predictive; C.Fixed 8 ]

let test_round_law_initial () =
  List.iter
    (fun strategy ->
      Alcotest.(check (pair int int))
        (Workload.Experiment.label strategy)
        (ref_round_initial strategy)
        (unpack (L.initial strategy)))
    [
      C.Circuit_start; C.Slow_start; C.Predictive; C.Fixed (-3); C.Fixed 0;
      C.Fixed 1; C.Fixed 8; C.Fixed ref_cwnd_cap; C.Fixed (ref_cwnd_cap + 1);
      C.Fixed max_int;
    ]

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_window_matches_fold C.Circuit_start
        "ring window matches the deque fold (circuitstart)";
      prop_window_matches_fold C.Predictive
        "ring window matches the deque fold (predictive)";
      prop_traces_match_references;
      prop_cwnd_bounded C.Circuit_start "circuitstart cwnd stays in [min, max]";
      prop_cwnd_bounded C.Slow_start "slow start cwnd stays in [min, max]";
      prop_cwnd_bounded C.Predictive "predictive cwnd stays in [min, max]";
      prop_allowance_bounded;
      prop_predictive_plan_matches_reference;
      prop_predictive_commits_plan_head;
      prop_predictive_zero_variance_falls_back;
      prop_base_rtt_is_min;
      prop_exit_recorded_once;
      prop_circuitstart_ramp_matches_reference;
      prop_slow_start_ramp_matches_reference;
      prop_exit_compensation_tracks_bdp;
    ]

let () =
  Alcotest.run "controller"
    [
      ( "construction",
        [
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "fixed strategy" `Quick test_fixed_strategy;
          Alcotest.test_case "rtt validation" `Quick test_rtt_validation;
        ] );
      ( "ramp_up",
        [
          Alcotest.test_case "no growth when not limited" `Quick
            test_no_growth_when_not_limited;
          Alcotest.test_case "allowance interpolates" `Quick test_allowance_interpolates;
          Alcotest.test_case "exit and compensation" `Quick test_exit_and_compensation;
          Alcotest.test_case "slow start halves" `Quick test_slow_start_baseline_halves;
          Alcotest.test_case "diff reporting" `Quick test_latest_diff_reporting;
        ] );
      ( "avoidance",
        [
          Alcotest.test_case "shrinks on queue" `Quick test_avoidance_shrinks_on_queue;
          Alcotest.test_case "grows when calm" `Quick test_avoidance_grows_when_calm;
          Alcotest.test_case "no growth when app-limited" `Quick
            test_avoidance_no_growth_unlimited;
          Alcotest.test_case "min cwnd floor" `Quick test_min_cwnd_floor;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "re-probes when enabled" `Quick test_adaptive_reprobes;
          Alcotest.test_case "stays put when disabled" `Quick test_non_adaptive_stays;
        ] );
      ( "edge_cases",
        [
          Alcotest.test_case "fixed allowance" `Quick test_fixed_allowance_equals_cwnd;
          Alcotest.test_case "gamma boundary" `Quick test_gamma_boundary_not_exceeded;
        ] );
      ( "predictive",
        [
          Alcotest.test_case "horizon one degenerates" `Quick
            test_predictive_horizon_one_degenerates;
          Alcotest.test_case "planner params validation" `Quick
            test_predictive_params_validation;
        ] );
      ( "round_law",
        [
          Alcotest.test_case "step matches the frozen inline law" `Quick
            test_round_law_step;
          Alcotest.test_case "initial matches the frozen arrival" `Quick
            test_round_law_initial;
        ] );
      ("params", [ Alcotest.test_case "validation" `Quick test_params_validation ]);
      ("properties", qtests);
    ]
