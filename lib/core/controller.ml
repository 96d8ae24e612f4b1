type strategy = Circuit_start | Slow_start | Fixed of int | Predictive
type phase = Ramp_up | Avoidance

(* Test hook: when set, a predictive commit takes the *last* step of
   the planned trajectory instead of the first — the receding-horizon
   discipline (plan H rounds, commit one) deliberately broken so the
   plan-bounds oracle can prove it notices. *)
let unsafe_disable_plan_bounds = ref false

(* The float state, in an all-float record: its fields are stored flat,
   so writing one allocates nothing (a float field of a mixed record is
   a fresh box on every write). *)
type floats = {
  mutable latest_diff : float;  (* nan until the first feedback *)
  mutable round_rtt_sum : float;  (* seconds, for the round mean *)
  mutable round_rtt_min : float;  (* seconds, for the ramp-up exit test *)
  mutable round_rtt_max : float;
      (* seconds; [round_rtt_max = round_rtt_min] over a whole round is
         the zero-variance signal that makes the predictive link model
         unidentifiable. *)
  mutable prev_rate : float;
      (* Delivery rate of the previous ramp-up round; nan when there is
         none.  With [stall_rounds] and [queue_rounds] it drives the
         exit decision — the ramp ends when the feedback rate stops
         accelerating persistently, not merely when RTTs inflate (a
         successor that is itself still ramping inflates RTTs and stalls
         the rate for a round at a time). *)
}

type t = {
  params : Params.t;
  strategy : strategy;
  mutable cwnd : int;
  mutable phase : phase;
  mutable base_rtt : Engine.Time.t;  (* zero until the first sample *)
  (* Round bookkeeping: a round ends after [round_target] feedbacks.
     [round_base] is the window at the start of the round; during a
     Circuit_start ramp-up round the send allowance interpolates from
     it to the doubled [cwnd]. *)
  mutable round_target : int;
  mutable round_base : int;
  mutable acked_in_round : int;
  f : floats;
  mutable stall_rounds : int;
  mutable queue_rounds : int;
  mutable limited_in_round : bool;
  mutable rounds : int;
  mutable exits : int;
  mutable exit_cwnd : int option;
  (* Countdown: re-apply rate-based compensation over the first few
     avoidance rounds.  Right after a ramp-up exit the bottleneck is
     still draining the overshoot at exactly its service rate, so the
     sliding feedback count measured then is the cleanest estimate of
     the bandwidth-delay product; taking the running maximum over a few
     rounds rides out a cascade of neighbouring hops that are still
     compensating themselves. *)
  mutable recalibrate : int;
  mutable calm_rounds : int;
  (* Arrival instants of the feedbacks within the last
     [rate_window_rtts] baseRtts, for rate-based overshooting
     compensation: a ring of [fb_len] entries from [fb_head], oldest
     first, doubled when full.  The first [fb_old] of them are older
     than one baseRtt.  Both cutoffs, [now - k * baseRtt], never
     decrease (the clock only advances and baseRtt only shrinks), so
     the window's head and the 1-RTT cursor only ever move forward. *)
  mutable fb : Engine.Time.t array;
  mutable fb_head : int;
  mutable fb_len : int;
  mutable fb_old : int;
  (* Sliding-rate readings of the last few rounds.  A hop whose
     feedback stream is momentarily starved (a successor applying its
     own compensation) must not mistake the trough for the path rate:
     compensation uses the recent peak. *)
  rate_history : int array;
  mutable rate_history_idx : int;
  mutable round_count1_max : int;  (* best 1-RTT feedback count this round *)
  mutable samples_total : int;
  (* Predictive strategy: the receding-horizon plan.  Preallocated at
     [horizon] length and refilled in place once per round — planning
     never touches the per-feedback hot path, and committing the first
     step allocates nothing. *)
  plan : int array;
  mutable plan_generation : int;
  mutable fallen_back : bool;
      (* Permanent: the model was unidentifiable at a planning instant
         (or [horizon = 1] left nothing to plan) and the controller
         degenerated to plain Vegas avoidance. *)
  (* Change hooks, fired in registration order: the transfer's cwnd
     tracer and the invariant oracles can observe independently. *)
  mutable on_change : (now:Engine.Time.t -> int -> unit) list;
  mutable debug_label : string;
}

let debug =
  match Sys.getenv_opt "CIRCUITSTART_DEBUG" with Some _ -> true | None -> false

let create ?(params = Params.default) strategy =
  let params =
    match Params.validate params with
    | Ok p -> p
    | Error msg -> invalid_arg ("Controller.create: " ^ msg)
  in
  let cwnd, phase =
    match strategy with
    | Fixed n ->
        if n < 1 then invalid_arg "Controller.create: Fixed window must be positive";
        (n, Avoidance)
    | Circuit_start | Slow_start -> (params.initial_cwnd, Ramp_up)
    | Predictive ->
        (* A one-step horizon cannot plan a trajectory: the strategy
           degenerates to reactive Vegas avoidance from the start. *)
        if params.horizon <= 1 then (params.initial_cwnd, Avoidance)
        else (params.initial_cwnd, Ramp_up)
  in
  {
    params;
    strategy;
    cwnd;
    phase;
    base_rtt = Engine.Time.zero;
    round_target = cwnd;
    round_base = cwnd;
    acked_in_round = 0;
    f =
      { latest_diff = Float.nan; round_rtt_sum = 0.; round_rtt_min = Float.infinity;
        round_rtt_max = 0.; prev_rate = Float.nan };
    stall_rounds = 0;
    queue_rounds = 0;
    limited_in_round = false;
    rounds = 0;
    exits = 0;
    exit_cwnd = None;
    recalibrate = 0;
    calm_rounds = 0;
    fb = Array.make 16 Engine.Time.zero;
    fb_head = 0;
    fb_len = 0;
    fb_old = 0;
    rate_history = Array.make 8 0;
    rate_history_idx = 0;
    round_count1_max = 0;
    samples_total = 0;
    plan =
      (match strategy with
      | Predictive -> Array.make params.horizon cwnd
      | Circuit_start | Slow_start | Fixed _ -> [||]);
    plan_generation = 0;
    fallen_back = (strategy = Predictive && params.horizon <= 1);
    on_change = [];
    debug_label = "?";
  }

let strategy t = t.strategy
let params t = t.params
let cwnd t = t.cwnd
let phase t = t.phase
let has_base t = (t.base_rtt :> int) > 0
let base_rtt t = if has_base t then Some t.base_rtt else None
let latest_diff t = if Float.is_nan t.f.latest_diff then None else Some t.f.latest_diff
let rounds_completed t = t.rounds
let ramp_up_exits t = t.exits
let exit_cwnd t = t.exit_cwnd
let acked_in_round t = t.acked_in_round
let planned_trajectory t = Array.copy t.plan
let plan_generation t = t.plan_generation
let fallen_back t = t.fallen_back
let set_on_change t f = t.on_change <- t.on_change @ [ f ]
let set_debug_label t label = t.debug_label <- label

let send_allowance t =
  match (t.phase, t.strategy) with
  | Ramp_up, (Circuit_start | Predictive) ->
      (* Feedback-clocked growth: each feedback admits the cell it
         freed plus one growth cell, so the round's train leaves at 2x
         the feedback pace rather than as a line-rate burst.  The
         predictive plan never commits more than a doubling per round
         (the candidate set tops out at 2w), so the same interpolation
         paces its ramp. *)
      Stdlib.min t.cwnd (t.round_base + (2 * t.acked_in_round))
  | Ramp_up, (Slow_start | Fixed _) | Avoidance, _ -> t.cwnd

(* --- Predictive strategy: receding-horizon planning ------------------

   Once per window-limited round the controller fits a two-parameter
   link model from its own observations — baseRtt (the propagation
   floor already tracked for Vegas) and the bottleneck rate estimate
   W* = recent_peak_rate_cells (the sustained 1-RTT feedback peak, the
   same estimator Rate_based compensation uses) — and plans the next
   [horizon] rounds' windows by greedily minimizing, step by step, a
   quadratic queue-delay / underutilization cost against a target
   window derived from the model.  Only the plan's first step is
   committed; the next round refits and replans from scratch.  While
   probing (ramp-up) the target is 2·W*: the rate estimate only lower-
   bounds capacity until a queue is seen, so the planner aims past it,
   which reproduces doubling while the path keeps opening.  Once
   capacity is identified the target is W* itself — the planner walks
   the window down to the modelled BDP, faster than Vegas's -1/round
   when the overshoot is deep. *)

(* One greedy planning step: pick, from the discrete candidate moves
   {halve, -1, hold, +1, double}, the window minimizing the step cost
     cost_queue·max(0, w - target)² + cost_under·max(0, target - w)².
   Candidates are considered in ascending order with a strict
   comparison, so ties break toward the smaller (safer) window.
   The step closes over nothing and keeps its floats unboxed, so a
   replan allocates nothing. *)
let[@inline] step_cost ~cost_queue ~cost_under ~target c =
  let over = float_of_int (Stdlib.max 0 (c - target)) in
  let under = float_of_int (Stdlib.max 0 (target - c)) in
  (cost_queue *. over *. over) +. (cost_under *. under *. under)

let plan_step ~min_cwnd ~max_cwnd ~cost_queue ~cost_under ~target w =
  let best = ref (Stdlib.min max_cwnd (Stdlib.max min_cwnd (w / 2))) in
  let best_cost = ref (step_cost ~cost_queue ~cost_under ~target !best) in
  for k = 1 to 4 do
    let v = match k with 1 -> w - 1 | 2 -> w | 3 -> w + 1 | _ -> 2 * w in
    let c = Stdlib.min max_cwnd (Stdlib.max min_cwnd v) in
    let cost = step_cost ~cost_queue ~cost_under ~target c in
    if cost < !best_cost then begin
      best := c;
      best_cost := cost
    end
  done;
  !best

let fill_plan ~params ~target ~cwnd plan =
  let w = ref cwnd in
  for i = 0 to Array.length plan - 1 do
    w :=
      plan_step ~min_cwnd:params.Params.min_cwnd ~max_cwnd:params.Params.max_cwnd
        ~cost_queue:params.Params.cost_queue ~cost_under:params.Params.cost_under
        ~target !w;
    plan.(i) <- !w
  done

let predictive_plan ~params ~cwnd ~target =
  let plan = Array.make (Stdlib.max 1 params.Params.horizon) cwnd in
  fill_plan ~params ~target ~cwnd plan;
  plan

(* A top-level loop rather than [List.iter] with a closure over [now]
   and [v]: firing the hooks allocates nothing. *)
let rec fire_hooks hooks ~now v =
  match hooks with
  | [] -> ()
  | f :: rest ->
      f ~now v;
      fire_hooks rest ~now v

let set_cwnd t ~now v =
  let v = Stdlib.min t.params.max_cwnd (Stdlib.max t.params.min_cwnd v) in
  if v <> t.cwnd then begin
    t.cwnd <- v;
    fire_hooks t.on_change ~now v
  end

let start_round t =
  t.round_target <- t.cwnd;
  t.round_base <- t.cwnd;
  t.acked_in_round <- 0;
  t.f.round_rtt_sum <- 0.;
  t.f.round_rtt_min <- Float.infinity;
  t.f.round_rtt_max <- 0.;
  t.round_count1_max <- 0;
  t.limited_in_round <- false

(* [Engine.Time.to_sec_f], restated so it inlines: a float returned
   across the module boundary is boxed. *)
let[@inline] sec_f (x : Engine.Time.t) = float_of_int (x :> int) /. 1e9

(* diff = cwnd * currentRtt / baseRtt - cwnd, in cells. *)
let[@inline] vegas_diff t ~rtt_s =
  if not (has_base t) then 0.
  else
    let base_s = sec_f t.base_rtt in
    float_of_int t.cwnd *. ((rtt_s /. base_s) -. 1.)

(* The delivery rate this hop currently sustains: feedbacks that
   arrived within the last baseRtt.  Counting over a fixed window keeps
   the signal robust against round-duration jitter (pipeline fill,
   allowance pacing), which a cells-per-round-duration measure is
   not. *)
let rate_window_rtts = 3

let fb_at t i = t.fb.((t.fb_head + i) land (Array.length t.fb - 1))

(* Account a feedback arriving at [now] in the sliding window: append
   it, drop what is [rate_window_rtts] baseRtts old, and move the 1-RTT
   cursor past what is one baseRtt old.  A dropped entry is the oldest,
   so it leaves the counted-old prefix first. *)
let record_feedback t ~now =
  if t.fb_len = Array.length t.fb then begin
    let cap = Array.length t.fb in
    let fb = Array.make (2 * cap) Engine.Time.zero in
    for i = 0 to t.fb_len - 1 do
      fb.(i) <- fb_at t i
    done;
    t.fb <- fb;
    t.fb_head <- 0
  end;
  t.fb.((t.fb_head + t.fb_len) land (Array.length t.fb - 1)) <- now;
  t.fb_len <- t.fb_len + 1;
  if has_base t then begin
    let window = (now :> int) - ((t.base_rtt :> int) * rate_window_rtts) in
    while t.fb_len > 0 && (fb_at t 0 :> int) <= window do
      t.fb_head <- (t.fb_head + 1) land (Array.length t.fb - 1);
      t.fb_len <- t.fb_len - 1;
      if t.fb_old > 0 then t.fb_old <- t.fb_old - 1
    done;
    let one_rtt = (now :> int) - (t.base_rtt :> int) in
    while t.fb_old < t.fb_len && (fb_at t t.fb_old :> int) <= one_rtt do
      t.fb_old <- t.fb_old + 1
    done
  end

(* Feedbacks within the last baseRtt. *)
let rtt_feedbacks t = t.fb_len - t.fb_old

(* Burst-proof rate: average over the full window.  A queue release can
   dump a whole flight of feedbacks into one RTT; averaging across a
   few RTTs bounds that inflation. *)
let sliding_rate_cells t =
  int_of_float (Float.round (float_of_int t.fb_len /. float_of_int rate_window_rtts))

let record_round_rate t ~now =
  (* The ring keeps the best *instantaneous* (one-RTT) reading of each
     round: compensation wants the recent sustained peak, which neither
     a starved trough (round ending mid-stall) nor the exact round
     boundary must erase. *)
  ignore now;
  t.rate_history.(t.rate_history_idx mod Array.length t.rate_history) <-
    t.round_count1_max;
  t.rate_history_idx <- t.rate_history_idx + 1

let recent_peak_rate_cells t =
  let current = Stdlib.max (rtt_feedbacks t) t.round_count1_max in
  Array.fold_left Stdlib.max current t.rate_history

let leave_ramp_up t ~now ~new_cwnd ~recalibrate =
  if debug then
    Printf.eprintf "[%8.1fms] %s EXIT ramp-up: cwnd %d -> %d (sliding=%d)\n"
      (Engine.Time.to_ms_f now) t.debug_label t.cwnd new_cwnd (sliding_rate_cells t);
  t.exits <- t.exits + 1;
  set_cwnd t ~now new_cwnd;
  if t.exit_cwnd = None then t.exit_cwnd <- Some t.cwnd;
  t.phase <- Avoidance;
  t.recalibrate <- (if recalibrate then 50 else 0);
  t.calm_rounds <- 0;
  t.f.prev_rate <- Float.nan;
  t.stall_rounds <- 0;
  t.queue_rounds <- 0;
  start_round t

let enter_ramp_up t =
  t.phase <- Ramp_up;
  t.calm_rounds <- 0;
  t.f.prev_rate <- Float.nan;
  t.stall_rounds <- 0;
  t.queue_rounds <- 0;
  start_round t

let double_round t ~now =
  t.rounds <- t.rounds + 1;
  let base = t.cwnd in
  set_cwnd t ~now (t.cwnd * 2);
  start_round t;
  (* One round = one RTT = the flight at the round's start; the
     allowance interpolates from that flight up to the doubled
     window. *)
  t.round_base <- base;
  t.round_target <- base

(* Overshooting compensation: the amount of data acknowledged within
   the current round (= the last baseRtt) — the train prefix the
   successor forwarded without additional delay, which is the minimal
   window that keeps the bottleneck busy. *)
let compensated_cwnd t =
  match t.params.compensation with
  | Params.Acked_count -> t.acked_in_round
  | Params.Rate_based -> recent_peak_rate_cells t

(* The predictive link model is identifiable only when the round that
   feeds it carried enough signal: at least two RTT samples whose
   values actually differ (a zero-variance round cannot separate
   propagation delay from queueing) and a nonzero rate estimate.
   Anything less triggers the hard fallback to Vegas avoidance. *)
let model_identifiable t =
  t.acked_in_round >= 2
  && t.f.round_rtt_max > t.f.round_rtt_min
  && recent_peak_rate_cells t >= 1

(* Refit, replan in place, and commit the plan's first step.  The
   generation bumps *before* the commit so a change hook (the cwnd-law
   oracle) always observes a fresh plan whose head equals the committed
   window. *)
let plan_and_commit t ~now ~target =
  let target =
    Stdlib.min t.params.max_cwnd (Stdlib.max t.params.min_cwnd target)
  in
  fill_plan ~params:t.params ~target ~cwnd:t.cwnd t.plan;
  t.plan_generation <- t.plan_generation + 1;
  let committed =
    if !unsafe_disable_plan_bounds then t.plan.(Array.length t.plan - 1)
    else t.plan.(0)
  in
  if debug then
    Printf.eprintf "[%8.1fms] %s plan#%d target=%d commit %d -> %d\n"
      (Engine.Time.to_ms_f now) t.debug_label t.plan_generation target t.cwnd
      committed;
  set_cwnd t ~now committed

(* Ramp-up exit decision, evaluated at round boundaries.

   Two signals combine.  (1) The Vegas queue estimate of the paper,
   with currentRtt taken as the round's *minimum* sample so that
   transient waits (the previous round's doubling burst, a successor's
   window step) do not masquerade as congestion — only a queue that
   never drained within the round inflates the minimum.  (2) The
   feedback *rate*: while the path is still opening up, the round-over-
   round delivery rate doubles; at the bottleneck it stops growing.  A
   stalled rate together with an inflated minimum RTT is a bottleneck;
   a rate stalled for two consecutive rounds means the path has
   converged even if the queue sits upstream of this hop.  Testing at
   round boundaries keeps the decision on whole packet trains, which is
   what the discrete rounds are for (paper, end of §2 "Algorithm
   Description"). *)
(* A round in which the window never constrained sending (upstream
   starvation, application-limited) says nothing about the path: do not
   grow on it, do not let its rate into the stall detector, and never
   exit ramp-up because of it. *)

let rate_stall_ratio = 1.5

(* Exit when the signals are persistent: two consecutive rounds of
   stalled rate with a standing queue (the bottleneck is saturated), or
   three consecutive stalled rounds even without a local queue (the
   path has converged; the queue sits at another hop).  One bad round
   is forgiven — in a cascade of ramping hops, a successor's doubling
   lands up to a round boundary later than ours and stalls us
   transiently. *)
let should_exit_ramp_up t ~now =
  let diff_mean =
    vegas_diff t ~rtt_s:(t.f.round_rtt_sum /. float_of_int (Stdlib.max 1 t.acked_in_round))
  in
  let rate = float_of_int (sliding_rate_cells t) in
  let p = t.f.prev_rate in
  (* No previous rate (nan) or a zero one: count as doubling. *)
  let growth = if p > 0. then rate /. p else 2. in
  let stalled = growth < rate_stall_ratio in
  record_round_rate t ~now;
  t.f.prev_rate <- rate;
  t.stall_rounds <- (if stalled then t.stall_rounds + 1 else 0);
  t.queue_rounds <- (if diff_mean > t.params.gamma then t.queue_rounds + 1 else 0);
  if debug then
    Printf.eprintf
      "[%8.1fms] %s round end: cwnd=%d target=%d rate=%.0f growth=%.2f diff_mean=%.2f stall=%d queue=%d\n"
      (Engine.Time.to_ms_f now) t.debug_label t.cwnd t.round_target rate growth
      diff_mean t.stall_rounds t.queue_rounds;
  t.queue_rounds >= 2 || t.stall_rounds >= 3

(* Predictive ramp-up round end.  The exit decision reuses the
   CircuitStart persistence test (two queueing rounds or three stalled
   rounds) — what differs is how the window moves: the planner commits
   the first step of a receding-horizon trajectory toward 2·W* while
   probing, and toward W* itself on exit, instead of doubling and then
   compensating. *)
let predictive_ramp_round_end t ~now =
  if not (model_identifiable t) then begin
    if debug then
      Printf.eprintf "[%8.1fms] %s FALLBACK: model unidentifiable\n"
        (Engine.Time.to_ms_f now) t.debug_label;
    t.fallen_back <- true;
    leave_ramp_up t ~now ~new_cwnd:t.cwnd ~recalibrate:false
  end
  else begin
    let w_star = recent_peak_rate_cells t in
    if should_exit_ramp_up t ~now then begin
      (* Capacity identified: plan down to the modelled BDP.  Mirrors
         [leave_ramp_up]'s bookkeeping, with the committed window taken
         from the plan instead of the compensation estimate. *)
      t.exits <- t.exits + 1;
      plan_and_commit t ~now ~target:w_star;
      if t.exit_cwnd = None then t.exit_cwnd <- Some t.cwnd;
      t.phase <- Avoidance;
      t.recalibrate <- 0;
      t.calm_rounds <- 0;
      t.f.prev_rate <- Float.nan;
      t.stall_rounds <- 0;
      t.queue_rounds <- 0;
      start_round t
    end
    else begin
      t.rounds <- t.rounds + 1;
      let base = t.cwnd in
      plan_and_commit t ~now ~target:(2 * w_star);
      start_round t;
      (* Same pacing convention as [double_round]: one round = the
         flight at the round's start; the allowance interpolates from
         it up to the committed window. *)
      t.round_base <- base;
      t.round_target <- base
    end
  end

let ramp_up_round_end t ~now =
  if not t.limited_in_round then begin
    t.rounds <- t.rounds + 1;
    start_round t
  end
  else
    match t.strategy with
    | Fixed _ -> ()
    | Circuit_start ->
        if should_exit_ramp_up t ~now then
          leave_ramp_up t ~now
            ~new_cwnd:(compensated_cwnd t)
            ~recalibrate:(t.params.compensation = Params.Rate_based)
        else double_round t ~now
    | Predictive -> predictive_ramp_round_end t ~now
    | Slow_start ->
        (* The conventional baseline's exit happens per sample (see
           [ramp_up_feedback]); reaching the round boundary just rolls
           the round over. *)
        t.rounds <- t.rounds + 1;
        start_round t

(* The sample's Vegas diff is read from [latest_diff]: a float argument
   would be boxed on every call. *)
let ramp_up_feedback t ~now =
  let diff_sample = t.f.latest_diff in
  (match t.strategy with
  | Slow_start ->
      (* The traditional transplant: continuous growth (one cell per
         feedback = doubling per RTT), and the plain Vegas slow-start
         exit — the first sample whose diff exceeds gamma ends the
         ramp, halving the window.  No packet-train analysis: in a
         multi-hop cascade this mistakes a successor's own ramp-up for
         congestion, which is precisely the deficiency CircuitStart's
         round-based timing analysis removes (paper §2). *)
      if diff_sample > t.params.gamma && t.samples_total >= 4 then
        leave_ramp_up t ~now ~new_cwnd:(t.cwnd / 2) ~recalibrate:false
      else begin
        if t.limited_in_round then set_cwnd t ~now (t.cwnd + 1);
        if t.acked_in_round >= t.round_target then ramp_up_round_end t ~now
      end
  | Circuit_start | Fixed _ | Predictive ->
      if t.acked_in_round >= t.round_target then ramp_up_round_end t ~now)

let avoidance_round_end t ~now =
  let mean_rtt_s = t.f.round_rtt_sum /. float_of_int t.acked_in_round in
  let diff = vegas_diff t ~rtt_s:mean_rtt_s in
  t.rounds <- t.rounds + 1;
  record_round_rate t ~now;
  if t.recalibrate > 0 then begin
    (* Overshooting compensation, second application: while the
       bottleneck drains the ramp-up overshoot it forwards at exactly
       its service rate, so the feedback count of the last baseRtt
       reveals the optimal window; track its maximum and suppress the
       Vegas shrink until the drain completes (round-mean diff back
       under beta) — the standing queue is the overshoot's legacy, not
       the current window's doing.  A round cap bounds the phase. *)
    set_cwnd t ~now (Stdlib.max t.cwnd (sliding_rate_cells t));
    t.recalibrate <- (if diff <= t.params.beta then 0 else t.recalibrate - 1);
    start_round t
  end
  else begin
  (match t.strategy with
  | Fixed _ -> ()
  | Predictive when not t.fallen_back ->
      (* Avoidance keeps replanning: refit every round and commit the
         plan's first step.  A queue signal retargets to the modelled
         BDP (never less than a one-cell shrink), calm window-limited
         rounds probe one cell like Vegas, and an unidentifiable round
         triggers the permanent fallback. *)
      t.calm_rounds <- 0;
      if not (model_identifiable t) then begin
        if debug then
          Printf.eprintf "[%8.1fms] %s FALLBACK: model unidentifiable\n"
            (Engine.Time.to_ms_f now) t.debug_label;
        t.fallen_back <- true
      end
      else begin
        let w_star = recent_peak_rate_cells t in
        let target =
          if diff > t.params.beta then Stdlib.min w_star (t.cwnd - 1)
          else if diff < t.params.alpha && t.limited_in_round then t.cwnd + 1
          else t.cwnd
        in
        plan_and_commit t ~now ~target
      end
  | Circuit_start | Slow_start | Predictive ->
      if diff > t.params.beta then begin
        set_cwnd t ~now (t.cwnd - 1);
        t.calm_rounds <- 0
      end
      else if diff < t.params.alpha && t.limited_in_round then begin
        set_cwnd t ~now (t.cwnd + 1);
        t.calm_rounds <- t.calm_rounds + 1
      end
      else t.calm_rounds <- 0);
  if
    t.params.adaptive
    && t.calm_rounds >= t.params.re_probe_after
    && (match t.strategy with
       | Circuit_start | Slow_start -> true
       | Fixed _ | Predictive -> false)
  then enter_ramp_up t
  else start_round t
  end

let on_feedback t ~now ~rtt ?(window_limited = true) () =
  if Engine.Time.(rtt <= Engine.Time.zero) then
    invalid_arg "Controller.on_feedback: rtt must be positive";
  if (not (has_base t)) || (rtt :> int) < (t.base_rtt :> int) then t.base_rtt <- rtt;
  t.acked_in_round <- t.acked_in_round + 1;
  t.samples_total <- t.samples_total + 1;
  if window_limited then t.limited_in_round <- true;
  (* Maintain the sliding feedback window (several baseRtts: averaging
     across a few RTTs keeps the rate estimate burst-proof — a queue
     release can dump a whole flight of feedbacks into one RTT). *)
  record_feedback t ~now;
  let c1 = rtt_feedbacks t in
  if c1 > t.round_count1_max then t.round_count1_max <- c1;
  let rtt_s = sec_f rtt in
  t.f.round_rtt_sum <- t.f.round_rtt_sum +. rtt_s;
  if rtt_s < t.f.round_rtt_min then t.f.round_rtt_min <- rtt_s;
  if rtt_s > t.f.round_rtt_max then t.f.round_rtt_max <- rtt_s;
  match t.phase with
  | Ramp_up ->
      t.f.latest_diff <- vegas_diff t ~rtt_s;
      ramp_up_feedback t ~now
  | Avoidance ->
      t.f.latest_diff <- vegas_diff t ~rtt_s;
      if t.acked_in_round >= t.round_target then avoidance_round_end t ~now

let pp_phase fmt = function
  | Ramp_up -> Format.pp_print_string fmt "ramp-up"
  | Avoidance -> Format.pp_print_string fmt "avoidance"

module Round_law = struct
  let initial_cwnd = 1
  let cwnd_cap = 10_000

  (* Phase codes, stored as is in the consensus engine's int records. *)
  let ramp = 0
  let steady = 1
  let fixed = 2

  (* The phase sits in the low two bits, so a packed pair is one
     immediate int. *)
  let pack phase cwnd = (cwnd lsl 2) lor phase
  let phase packed = packed land 3
  let cwnd packed = packed asr 2

  let initial = function
    | Fixed w -> pack fixed (Stdlib.min cwnd_cap (Stdlib.max 1 w))
    | Circuit_start | Slow_start | Predictive -> pack ramp initial_cwnd

  let doubled cwnd =
    let d = cwnd * 2 in
    if d > cwnd_cap then cwnd_cap else d

  let step strategy ~phase ~cwnd ~bdp =
    if phase = fixed then pack fixed cwnd
    else if phase = ramp then
      if cwnd >= bdp then
        pack steady
          (match strategy with
          | Circuit_start | Predictive -> bdp
          | Slow_start ->
              let h = cwnd / 2 in
              if h < 1 then 1 else h
          | Fixed _ -> cwnd)
      else
        pack ramp
          (match strategy with
          | Predictive ->
              (* The doubling capped at the round's bdp, so the ramp
                 approaches the target without overshooting it. *)
              let d = doubled cwnd in
              if d > bdp then bdp else d
          | Circuit_start | Slow_start | Fixed _ -> doubled cwnd)
    else
      pack steady
        (match strategy with
        | Predictive ->
            (* Half the gap to the bdp, at least one cell: O(log gap)
               rounds where the one-cell tracker walks. *)
            if cwnd < bdp then
              let g = (bdp - cwnd) / 2 in
              cwnd + (if g < 1 then 1 else g)
            else if cwnd > bdp then
              let g = (cwnd - bdp) / 2 in
              cwnd - (if g < 1 then 1 else g)
            else cwnd
        | Circuit_start | Slow_start | Fixed _ ->
            if cwnd < bdp then cwnd + 1
            else if cwnd > bdp then cwnd - 1
            else cwnd)
end
