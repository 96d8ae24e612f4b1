(* Consensus-scale network workload.

   The packet-level experiments (star / fault / overload) model every
   cell on every link; at thousands of relays and 10^5 concurrent
   circuits that is billions of events per run.  This experiment moves
   the data plane up one level: a circuit is advanced once per RTT
   round, delivering [min cwnd bdp] cells against its bottleneck hop's
   fair share, and its window moves by [Controller.Round_law], a round
   law fed the true fair-share bdp rather than the controller's
   measurements.  One event per circuit per round is what makes a
   million circuit lifetimes per run affordable.

   There is no event queue.  Each slot holds one pending instant in
   [s_next] (a slot hosts one session, so it never has two), and time
   advances in exchange windows: per window, each shard sweeps its
   slot range once in ascending order and runs every slot's due
   events.  Inside a window a step reads only slot-local state or
   shared state frozen at the last barrier, so per-slot order is as
   good as time order, and a step costs one array read and a cache
   line of its record instead of a heap or wheel operation.

   All hot-path state is flat and preallocated:

   - relay occupancy lives in [active]/[load_cells] int arrays charged
     and credited exactly like [Switchboard]'s budget counters (the
     admission predicate IS [Switchboard.within_budget]);
   - circuit records are strided slices of one flat int array, slot
     [i]'s record pinned at [i * stride]; arrival and teardown allocate
     nothing, and a round touches one cache-resident record;
   - TTLB analysis is streamed into fixed-bin {!Engine.Stats.Sketch}es,
     O(1) memory per circuit.

   Per-slot RNG streams are split from the master seed in a fixed order
   at setup, and the window loop ([run_sharded]) lets the shard
   count choose only how the schedule executes (the guarantee is stated
   once, on [shards] in the interface).  Paired CS-vs-SS comparisons
   share the identical population, arrival and size draws. *)

type config = {
  relays : int;
  slots : int;
  target_lifetimes : int;
  duration : Engine.Time.t;
  population : Relay_gen.config;
  budget : Tor_model.Switchboard.budget;
  mean_think : Engine.Time.t;
  diurnal_amplitude : float;
  diurnal_period : Engine.Time.t;
  elephant_fraction : float;
  elephant_cells : int;
  mice_cells : int;
  (* Relay churn, calibrated from the packet-level model: per-relay
     per-second hazards, tried once per [churn_tick] per relay.  A
     departing relay crashes with [crash_fraction] (instant kill) or
     drains (admissions refused, existing circuits run until
     [drain_grace] expires, then killed).  Clients select from a
     snapshot refreshed every [epoch_period], so draws race departures
     by up to one period.  [spare_relays] extra relays start down and
     join under the join hazard.  All zero hazards = churn machinery
     fully off (no timers, no extra draws — byte-identical to the
     churn-free workload). *)
  leave_hazard : float;
  join_hazard : float;
  crash_fraction : float;
  drain_grace : Engine.Time.t;
  epoch_period : Engine.Time.t;
  churn_tick : Engine.Time.t;
  spare_relays : int;
  strategy : Circuitstart.Controller.strategy;
  sketch_bins : int;
  sketch_max : Engine.Time.t;
  retain_exact : bool;
  (* Within-run parallelism: circuit slots are partitioned into
     [min shards slots] contiguous shards driven in lockstep exchange
     windows. *)
  shards : int;
}

module Round_law = Circuitstart.Controller.Round_law

(* Fixed parameters of the round model, documented in the interface:
   the client/server access latency (10 ms) in ns, and how many times
   an admission-refused arrival redraws its path. *)
let access_delay_ns = 10_000_000
let max_path_redraws = 4

let default_config =
  {
    relays = 200;
    slots = 2_000;
    target_lifetimes = 0;
    duration = Engine.Time.zero;
    population = Relay_gen.default_config;
    budget = Tor_model.Switchboard.no_budget;
    mean_think = Engine.Time.ms 500;
    diurnal_amplitude = 0.;
    diurnal_period = Engine.Time.s 600;
    elephant_fraction = 0.05;
    elephant_cells = 4_096;
    mice_cells = 32;
    leave_hazard = 0.;
    join_hazard = 0.;
    crash_fraction = 0.5;
    drain_grace = Engine.Time.s 5;
    epoch_period = Engine.Time.s 10;
    churn_tick = Engine.Time.s 1;
    spare_relays = 0;
    strategy = Circuitstart.Controller.Circuit_start;
    sketch_bins = 2_048;
    sketch_max = Engine.Time.s 600;
    retain_exact = false;
    shards = 1;
  }

let validate_config c =
  if c.relays < 4 then Error "relays must be at least 4 (3 distinct hops + spare)"
  else if c.slots < 1 then Error "slots must be positive"
  else if c.target_lifetimes < 0 then Error "target_lifetimes must be >= 0"
  else if Engine.Time.is_negative c.duration then Error "duration must be >= 0"
  else if Engine.Time.(c.mean_think <= Engine.Time.zero) then
    Error "mean_think must be positive"
  else if
    not (Float.is_finite c.diurnal_amplitude)
    || c.diurnal_amplitude < 0. || c.diurnal_amplitude > 0.95
  then Error "diurnal_amplitude must be in [0, 0.95]"
  else if Engine.Time.(c.diurnal_period <= Engine.Time.zero) then
    Error "diurnal_period must be positive"
  else if
    not (Float.is_finite c.elephant_fraction)
    || c.elephant_fraction < 0. || c.elephant_fraction > 1.
  then Error "elephant_fraction must be in [0, 1]"
  else if c.elephant_cells < 1 || c.mice_cells < 1 then
    Error "transfer sizes must be positive"
  else if
    not (Float.is_finite c.leave_hazard) || c.leave_hazard < 0.
    || (not (Float.is_finite c.join_hazard)) || c.join_hazard < 0.
  then Error "churn hazards must be finite and >= 0"
  else if
    not (Float.is_finite c.crash_fraction)
    || c.crash_fraction < 0. || c.crash_fraction > 1.
  then Error "crash_fraction must be in [0, 1]"
  else if Engine.Time.is_negative c.drain_grace then
    Error "drain_grace must be >= 0"
  else if Engine.Time.(c.epoch_period <= Engine.Time.zero) then
    Error "epoch_period must be positive"
  else if Engine.Time.(c.churn_tick <= Engine.Time.zero) then
    Error "churn_tick must be positive"
  else if c.spare_relays < 0 then Error "spare_relays must be >= 0"
  else if (match c.budget.Tor_model.Switchboard.max_circuits with
           | Some n -> n < 1 | None -> false)
  then Error "budget.max_circuits must be positive when set"
  else if (match c.budget.Tor_model.Switchboard.max_queued_bytes with
           | Some n -> n < 1 | None -> false)
  then Error "budget.max_queued_bytes must be positive when set"
  else if c.shards < 1 then Error "shards must be >= 1"
  else if c.sketch_bins < 1 then Error "sketch_bins must be positive"
  else if Engine.Time.(c.sketch_max <= Engine.Time.zero) then
    Error "sketch_max must be positive"
  else
    match Relay_gen.validate_config c.population with
    | Error msg -> Error msg
    | Ok _ -> Ok c

let lifetimes_goal c =
  if c.target_lifetimes > 0 then c.target_lifetimes else 10 * c.slots

type result = {
  relays : int;
  slots : int;
  completed : int;
  mice : int;
  elephants : int;
  arrivals : int;
  elephant_arrivals : int;
  refused_arrivals : int;
  admission_redraws : int;
  abandoned : int;
  delivered_cells : int;
  rounds : int;
  pool_recycles : int;
  peak_active : int;
  ttlb_all : Engine.Stats.Sketch.t;
  ttlb_mice : Engine.Stats.Sketch.t;
  ttlb_elephants : Engine.Stats.Sketch.t;
  ttlb_exact : float array;
  orphaned_circuits : int;
  orphaned_cells : int;
  (* Churn accounting (all zero in churn-free runs). *)
  churn_departs : int;
  churn_crashes : int;
  churn_drains_completed : int;
  churn_restarts : int;
  churn_epochs : int;
  churn_kills : int;
  resumed : int;
  gone_draws : int;
  draining_refusals : int;
  rounds_through_down : int;
  depart_residue : int;
  end_time : Engine.Time.t;
  wall_events : int;
}

(* Test/fuzz hook: when set, teardown skips crediting the released
   circuit's occupancy back to its relays — the classic pool-recycling
   bug where a recycled record's charges outlive it.  The run then ends
   with nonzero [orphaned_circuits]/[orphaned_cells], which the check
   harness's pool oracle flags. *)
let unsafe_disable_pool_release = ref false

(* Test/fuzz hook: when set, a churn tick skips its kill pass, so
   circuits keep extending through the relays whose departure (crash
   or drain deadline) completed in it, and their occupancy survives the
   departure — the two regressions the churn oracles exist to catch
   ([rounds_through_down] and [depart_residue] go nonzero; the residue
   check still runs for every departure). *)
let unsafe_disable_churn_kill = ref false

(* Test/fuzz hook: when set, runs skip the deferred deltas and apply
   relay occupancy changes immediately during the window — the
   broken exchange ordering the barrier protocol exists to prevent.
   Mid-window application makes each shard's view depend on which
   slots it co-hosts, so shards=1 and shards=4 runs diverge; the check
   harness's shard differential catches the divergence and shrinks it
   to a replayable line.  While it is set, a window's shards step in
   sequence on the calling domain, so the planted bug is deterministic
   rather than a data race.  They step in descending shard order: each
   shard sweeps its slots in ascending order, so an ascending shard
   order would apply the in-place writes in global slot order for
   every shard count, and the differential could not see them. *)
let unsafe_unordered_exchange = ref false

(* Live relay status at round level. *)
let st_down = 0
let st_draining = 1
let st_up = 2

(* Departure floors: a leave draw is suppressed rather than letting the
   up population (or the up exit population) fall to where 3-distinct-
   hop paths become infeasible. *)
let min_up_relays = 4
let min_up_exits = 2

(* Field offsets within one strided circuit record ([state.circ]). *)
let f_hop0 = 0
let f_hop1 = 1
let f_hop2 = 2
let f_remaining = 3
let f_cwnd = 4
let f_phase = 5  (* a [Round_law] phase code *)
let f_kind = 6  (* 0 = mouse, 1 = elephant *)
let f_started_ns = 7
let f_rtt_ns = 8
let f_used = 9  (* the record has served at least one circuit *)
let stride = 10

type state = {
  config : config;
  (* [config.mean_think] in seconds, boxed once here: [think] hands it
     to [Rng.exponential_ns] as it is. *)
  think_mean_s : float;
  (* This shard's contiguous slot range [lo, hi). *)
  lo : int;
  hi : int;
  (* The shard's clock in ns: the instant of the step being run, and
     the window's end between windows. *)
  mutable now : int;
  mutable executed : int;  (* steps run *)
  (* Relay population (struct of arrays). *)
  cap_cps : float array;  (* bandwidth in cells/sec *)
  lat_ns : int array;
  active : int array;  (* circuits currently routed through the relay *)
  load_cells : int array;  (* queued cells charged by those circuits *)
  (* Bandwidth-weighted draw tables: all relays, and the exits by
     their index in [exit_ids]. *)
  w_all : Engine.Rng.Weighted.t;
  exit_ids : int array;
  w_exit : Engine.Rng.Weighted.t;
  (* Churn state.  [rstatus] is the live status; [vis] is the epoch
     snapshot clients draw from (copied from [rstatus] at each epoch
     boundary, draining relays stay visible).  Both all-up/all-visible
     in churn-free runs, where no churn timer ever fires. *)
  churn : bool;
  n_total : int;  (* relays + spare_relays *)
  rstatus : int array;
  vis : int array;
  is_exit : bool array;
  (* A draining relay's deadline; a down relay's departure instant
     (0 for a spare that never ran). *)
  drain_deadline_ns : int array;
  churn_rng : Engine.Rng.t;
  mutable up_relays : int;
  mutable up_exits : int;
  (* Per-slot resume stash: a transfer killed by a departure keeps its
     remaining cells, kind and start time, and the slot's next admitted
     arrival carries them on — so churn-killed lifetimes pay the
     rebuild in their TTLB instead of vanishing. [-1] = no stash. *)
  s_res_rem : int array;
  s_res_kind : int array;
  s_res_started : int array;
  (* Circuit records: flat records of [stride] ints each, slot [i]'s
     pinned at [i * stride] (a slot hosts at most one circuit).  One
     strided record, not parallel arrays: a round event touches every
     field of one circuit, so keeping the fields adjacent costs ~2 cache
     lines per event where 10 separate 10^5-entry arrays cost ~10
     misses — at a million events per second that locality is the
     difference, not the arithmetic. *)
  circ : int array;  (* slots * stride; field offsets [f_*] above *)
  (* Session slots.  [s_next.(i)] is slot [i]'s next event instant in
     ns ([max_int] = none): its arrival while thinking, its next round
     while it hosts a circuit. *)
  s_next : int array;
  s_rng : Engine.Rng.t array;
  s_circ : int array;  (* pool index, or -1 while thinking *)
  (* Counters and streaming analysis. *)
  mutable completed : int;
  mutable mice_done : int;
  mutable elephants_done : int;
  mutable arrivals : int;
  mutable elephant_arrivals : int;
  mutable refused_arrivals : int;
  mutable admission_redraws : int;
  mutable delivered_cells : int;
  mutable rounds : int;
  mutable pool_recycles : int;
  mutable churn_departs : int;
  mutable churn_crashes : int;
  mutable churn_drains_completed : int;
  mutable churn_restarts : int;
  mutable churn_epochs : int;
  mutable churn_kills : int;
  mutable resumed : int;
  mutable gone_draws : int;
  mutable draining_refusals : int;
  mutable rounds_through_down : int;
  mutable depart_residue : int;
  mutable live : int;
  ttlb_all : Engine.Stats.Sketch.t;
  ttlb_mice : Engine.Stats.Sketch.t;
  ttlb_elephants : Engine.Stats.Sketch.t;
  (* Exact TTLB tallies in integer nanoseconds, kept alongside the
     sketches' float sums: integer addition is associative, so the
     merged sketch's sum can be installed from these and stay
     bit-identical across shard counts ({!Stats.Sketch.set_sum}). *)
  mutable ns_all : int;
  mutable ns_mice : int;
  mutable ns_elephants : int;
  exact : Engine.Stats.Samples.t option;
  cell_bytes : int;
  (* Shard plumbing.  Each state owns one contiguous slot range and
     shares every relay-level array (and the slot-level arrays) with
     the other shards; each has its own clock, counters and sketches.
     While [defer] is set — the parallel phase of an exchange window —
     relay occupancy writes are added into the shard-local dense deltas
     [d_active]/[d_load] (one cell per relay) and folded into the
     shared counters at the barrier, so every shard reads the same
     frozen snapshot regardless of what its peers are doing. *)
  mutable defer : bool;
  d_active : int array;
  d_load : int array;
}

(* [f st i] for every slot [i] in slot order, [st] its owner's state:
   shards own contiguous ascending ranges, so no per-slot lookup. *)
let iter_slots states f =
  Array.iter
    (fun st ->
      for i = st.lo to st.hi - 1 do
        f st i
      done)
    states

(* Slot [i]'s next event, [delay_ns] after the shard's clock, with the
   saturating arithmetic of {!Engine.Time.add}. *)
let schedule st i delay_ns =
  st.s_next.(i) <-
    (Engine.Time.add (Engine.Time.ns st.now) (Engine.Time.ns delay_ns) :> int)

(* Draw a relay distinct from [a] and [b] and visible in the current
   snapshot: a few weighted redraws, then a deterministic bounded scan
   so selection can never loop.  [-1] when no eligible relay exists.
   With everything visible (churn-free) the draw sequence is identical
   to the historical unguarded version.  [eligible] is a top-level
   function rather than a local closure over [a] and [b], so a draw
   allocates no closure. *)
let eligible st ~a ~b r = r <> a && r <> b && st.vis.(r) = 1

let draw_distinct st rng ~a ~b =
  let r = ref (Engine.Rng.Weighted.draw st.w_all rng) in
  let tries = ref 0 in
  while (not (eligible st ~a ~b !r)) && !tries < 8 do
    r := Engine.Rng.Weighted.draw st.w_all rng;
    incr tries
  done;
  if eligible st ~a ~b !r then !r
  else begin
    let n = st.n_total in
    let c = ref ((!r + 1) mod n) in
    let steps = ref 0 in
    while (not (eligible st ~a ~b !c)) && !steps < n do
      c := (!c + 1) mod n;
      incr steps
    done;
    if eligible st ~a ~b !c then !c else -1
  end

(* Exits are drawn first (no distinctness constraint yet), but must be
   snapshot-visible; the scan fallback walks the exit sub-population,
   not all relays.  [-1] when no exit is visible.  Draws index the exit
   sub-population and map through [exit_ids]; the scan starts after the
   last drawn index, so the fallback needs no lookup and no closure. *)
let draw_exit st rng =
  let x = ref (Engine.Rng.Weighted.draw st.w_exit rng) in
  let tries = ref 0 in
  while st.vis.(st.exit_ids.(!x)) = 0 && !tries < 8 do
    x := Engine.Rng.Weighted.draw st.w_exit rng;
    incr tries
  done;
  if st.vis.(st.exit_ids.(!x)) = 1 then st.exit_ids.(!x)
  else begin
    let k = Array.length st.exit_ids in
    let c = ref ((!x + 1) mod k) in
    let steps = ref 0 in
    while st.vis.(st.exit_ids.(!c)) = 0 && !steps < k do
      c := (!c + 1) mod k;
      incr steps
    done;
    let cand = st.exit_ids.(!c) in
    if st.vis.(cand) = 1 then cand else -1
  end

let admits st r =
  Tor_model.Switchboard.within_budget st.config.budget ~circuits:st.active.(r)
    ~queued_bytes:(st.load_cells.(r) * st.cell_bytes)

(* Admission consults *live* status where the draw consulted the stale
   snapshot — this gap is the staleness race: a hop that departed since
   the epoch boundary fails the attempt as a gone draw (down) or a
   draining refusal. *)
let hop_ok st r =
  if not st.churn then admits st r
  else if st.rstatus.(r) = st_down then begin
    st.gone_draws <- st.gone_draws + 1;
    false
  end
  else if st.rstatus.(r) = st_draining then begin
    st.draining_refusals <- st.draining_refusals + 1;
    false
  end
  else admits st r

(* Add one occupancy delta into the shard's dense per-relay deltas:
   two int read-modify-writes, allocation-free and bounded by the relay
   count however busy the window is. *)
let ob_push st r d_active d_load =
  st.d_active.(r) <- st.d_active.(r) + d_active;
  st.d_load.(r) <- st.d_load.(r) + d_load

let charge_hop st r delta_cells =
  if st.defer then st.d_load.(r) <- st.d_load.(r) + delta_cells
  else st.load_cells.(r) <- st.load_cells.(r) + delta_cells

(* Return a circuit record to the pool.  Crediting the occupancy back
   to the relays is the part a recycling bug forgets — modeled by the
   [unsafe_disable_pool_release] hook. *)
let unregister st r cwnd =
  if st.defer then ob_push st r (-1) (-cwnd)
  else begin
    st.active.(r) <- st.active.(r) - 1;
    st.load_cells.(r) <- st.load_cells.(r) - cwnd
  end

(* [p] is the record's base offset into [st.circ] (slot * stride) —
   the session slots store base offsets directly, so the hot path never
   multiplies. *)
let release st p =
  if not !unsafe_disable_pool_release then begin
    let cwnd = st.circ.(p + f_cwnd) in
    unregister st st.circ.(p + f_hop0) cwnd;
    unregister st st.circ.(p + f_hop1) cwnd;
    unregister st st.circ.(p + f_hop2) cwnd
  end;
  st.live <- st.live - 1

let diurnal_factor st =
  let a = st.config.diurnal_amplitude in
  if a = 0. then 1.
  else
    let t = float_of_int st.now /. 1e9 in
    let period = Engine.Time.to_sec_f st.config.diurnal_period in
    1. +. (a *. Float.sin (2. *. Float.pi *. t /. period))

(* Without diurnal modulation the mean is the stored float itself
   ([x /. 1.] is [x]), so the draw boxes nothing. *)
let think st i =
  let rng = st.s_rng.(i) in
  let delay_ns =
    if st.config.diurnal_amplitude = 0. then
      Engine.Rng.exponential_ns rng ~mean:st.think_mean_s
    else
      Engine.Rng.exponential_ns rng ~mean:(st.think_mean_s /. diurnal_factor st)
  in
  schedule st i delay_ns

let complete st i p =
  let dt_ns = st.now - st.circ.(p + f_started_ns) in
  st.ns_all <- st.ns_all + dt_ns;
  Engine.Stats.Sketch.add_ns st.ttlb_all dt_ns;
  if st.circ.(p + f_kind) = 1 then begin
    st.elephants_done <- st.elephants_done + 1;
    st.ns_elephants <- st.ns_elephants + dt_ns;
    Engine.Stats.Sketch.add_ns st.ttlb_elephants dt_ns
  end
  else begin
    st.mice_done <- st.mice_done + 1;
    st.ns_mice <- st.ns_mice + dt_ns;
    Engine.Stats.Sketch.add_ns st.ttlb_mice dt_ns
  end;
  (match st.exact with
  | Some samples -> Engine.Stats.Samples.add samples (float_of_int dt_ns *. 1e-9)
  | None -> ());
  release st p;
  st.s_circ.(i) <- -1;
  st.completed <- st.completed + 1;
  think st i

(* One RTT round: deliver [min cwnd bdp] cells against the bottleneck
   hop's fair share, then move the window by [Round_law.step].  [bdp]
   is the true fair share times the RTT, an oracle the packet-level
   controller never sees. *)
let round st i p =
  st.rounds <- st.rounds + 1;
  let h0 = st.circ.(p + f_hop0)
  and h1 = st.circ.(p + f_hop1)
  and h2 = st.circ.(p + f_hop2) in
  (* Churn oracle 1's counter: a correctly swept departure leaves no
     circuit to take a round through a down relay, so this stays zero
     unless the kill pass is broken.  One boolean guard in churn-free
     runs. *)
  if
    st.churn
    && (st.rstatus.(h0) = st_down || st.rstatus.(h1) = st_down
        || st.rstatus.(h2) = st_down)
  then st.rounds_through_down <- st.rounds_through_down + 1;
  (* The share computation is written out inline with bare [<]
     comparisons: without flambda, a [share] helper or [Float.min]
     would box its float result, ~10 words on every round event.
     Kept local, the whole chain stays in registers. *)
  let s0 = st.cap_cps.(h0) /. float_of_int st.active.(h0) in
  let s1 = st.cap_cps.(h1) /. float_of_int st.active.(h1) in
  let s2 = st.cap_cps.(h2) /. float_of_int st.active.(h2) in
  let s01 = if s0 < s1 then s0 else s1 in
  let share_cps = if s01 < s2 then s01 else s2 in
  let rtt_s = float_of_int st.circ.(p + f_rtt_ns) *. 1e-9 in
  let bdp =
    let b = int_of_float (share_cps *. rtt_s) in
    let cap = Round_law.cwnd_cap in
    if b < 1 then 1 else if b > cap then cap else b
  in
  let cwnd = st.circ.(p + f_cwnd) in
  let remaining = st.circ.(p + f_remaining) in
  let deliver =
    let d = if cwnd < bdp then cwnd else bdp in
    if d < remaining then d else remaining
  in
  st.circ.(p + f_remaining) <- remaining - deliver;
  st.delivered_cells <- st.delivered_cells + deliver;
  if remaining - deliver <= 0 then complete st i p
  else begin
    let next =
      Round_law.step st.config.strategy ~phase:st.circ.(p + f_phase) ~cwnd
        ~bdp
    in
    st.circ.(p + f_phase) <- Round_law.phase next;
    let cwnd' = Round_law.cwnd next in
    if cwnd' <> cwnd then begin
      let delta = cwnd' - cwnd in
      charge_hop st h0 delta;
      charge_hop st h1 delta;
      charge_hop st h2 delta;
      st.circ.(p + f_cwnd) <- cwnd'
    end;
    schedule st i st.circ.(p + f_rtt_ns)
  end

let register st r cwnd =
  if st.defer then ob_push st r 1 cwnd
  else begin
    st.active.(r) <- st.active.(r) + 1;
    st.load_cells.(r) <- st.load_cells.(r) + cwnd
  end

(* The churn tick's kill pass: kill every live circuit with a down
   hop.  A relay that went down in an earlier tick carries no circuit
   ([hop_ok] refuses down relays, and its own tick's pass killed the
   rest), so this selects exactly the circuits through a relay whose
   departure completed in this tick, each once however many of its
   hops departed.  Each victim stashes a resume record on its slot (the
   transfer carries on over a fresh path with its original start time),
   releases its pooled record — crediting all three hops — and falls
   back to thinking.  [release] + [think] only recycle and reschedule,
   so the pass allocates nothing.  A kill touches only its slot, the
   relay occupancy counters and [churn_kills], and [think] draws from
   the slot's own rng at the barrier instant, so the slot order of the
   kills changes no draw.  It runs at a barrier, where every shard's
   clock reads the barrier instant, so [st] may stand in for each
   slot's owning shard. *)
let kill_through_down st =
  for i = 0 to Array.length st.s_circ - 1 do
    let p = st.s_circ.(i) in
    if
      p >= 0
      && (st.rstatus.(st.circ.(p + f_hop0)) = st_down
          || st.rstatus.(st.circ.(p + f_hop1)) = st_down
          || st.rstatus.(st.circ.(p + f_hop2)) = st_down)
    then begin
      st.churn_kills <- st.churn_kills + 1;
      st.s_res_rem.(i) <- st.circ.(p + f_remaining);
      st.s_res_kind.(i) <- st.circ.(p + f_kind);
      st.s_res_started.(i) <- st.circ.(p + f_started_ns);
      release st p;
      st.s_circ.(i) <- -1;
      think st i
    end
  done

(* One churn tick: a Bernoulli trial per relay in id order (the whole
   schedule is a pure function of [churn_rng]), with floors keeping the
   up population path-feasible.  Draining relays check their deadline;
   down relays try the join hazard.  The relay loop only records a
   completed departure (crash, or drain deadline): the relay goes down
   and [drain_deadline_ns] is stamped with the tick's instant.  The
   loop's decisions read nothing a kill writes, so one kill pass after
   the loop serves every departure of the tick. *)
let churn_step st =
  let c = st.config in
  let dt = Engine.Time.to_sec_f c.churn_tick in
  let p_leave = Float.min 1. (c.leave_hazard *. dt) in
  let p_join = Float.min 1. (c.join_hazard *. dt) in
  let now = st.now in
  let departed = ref 0 in
  for r = 0 to st.n_total - 1 do
    if st.rstatus.(r) = st_up then begin
      if p_leave > 0. && Engine.Rng.bernoulli st.churn_rng p_leave then
        if
          st.up_relays > min_up_relays
          && ((not st.is_exit.(r)) || st.up_exits > min_up_exits)
        then begin
          st.churn_departs <- st.churn_departs + 1;
          st.up_relays <- st.up_relays - 1;
          if st.is_exit.(r) then st.up_exits <- st.up_exits - 1;
          if
            c.crash_fraction > 0.
            && Engine.Rng.bernoulli st.churn_rng c.crash_fraction
          then begin
            st.churn_crashes <- st.churn_crashes + 1;
            st.rstatus.(r) <- st_down;
            st.drain_deadline_ns.(r) <- now;
            incr departed
          end
          else begin
            st.rstatus.(r) <- st_draining;
            st.drain_deadline_ns.(r) <-
              now + (c.drain_grace :> int)
          end
        end
    end
    else if st.rstatus.(r) = st_draining then begin
      if now >= st.drain_deadline_ns.(r) then begin
        st.churn_drains_completed <- st.churn_drains_completed + 1;
        st.rstatus.(r) <- st_down;
        st.drain_deadline_ns.(r) <- now;
        incr departed
      end
    end
    else if p_join > 0. && Engine.Rng.bernoulli st.churn_rng p_join then begin
      st.churn_restarts <- st.churn_restarts + 1;
      st.rstatus.(r) <- st_up;
      st.up_relays <- st.up_relays + 1;
      if st.is_exit.(r) then st.up_exits <- st.up_exits + 1
    end
  done;
  if !departed > 0 then begin
    if not !unsafe_disable_churn_kill then kill_through_down st;
    (* Churn oracle 2's counter: a finished departure leaves zero
       circuit slots and zero queued cells at the relay — unless the
       kill pass was sabotaged.  Ticks are strictly increasing, so the
       stamp picks out exactly this tick's departures. *)
    for r = 0 to st.n_total - 1 do
      if
        st.rstatus.(r) = st_down
        && st.drain_deadline_ns.(r) = now
        && (st.active.(r) <> 0 || st.load_cells.(r) <> 0)
      then st.depart_residue <- st.depart_residue + 1
    done
  end

(* The consensus refresh: clients start seeing the live population as
   of this instant (draining relays stay listed, down relays drop
   out).  Everything between boundaries is staleness by design. *)
let advance_epoch st =
  st.churn_epochs <- st.churn_epochs + 1;
  for r = 0 to st.n_total - 1 do
    st.vis.(r) <- (if st.rstatus.(r) = st_down then 0 else 1)
  done

let try_arrival st i =
  let rng = st.s_rng.(i) in
  let attempts = max_path_redraws + 1 in
  let admitted = ref false in
  let g = ref 0 and m = ref 0 and e = ref 0 in
  let tries = ref 0 in
  while (not !admitted) && !tries < attempts do
    if !tries > 0 then st.admission_redraws <- st.admission_redraws + 1;
    incr tries;
    e := draw_exit st rng;
    if !e >= 0 then begin
      g := draw_distinct st rng ~a:!e ~b:(-1);
      if !g >= 0 then begin
        m := draw_distinct st rng ~a:!e ~b:!g;
        if !m >= 0 then
          admitted := hop_ok st !g && hop_ok st !m && hop_ok st !e
      end
    end
  done;
  if not !admitted then begin
    st.refused_arrivals <- st.refused_arrivals + 1;
    think st i
  end
  else begin
    let p = i * stride in
    if st.circ.(p + f_used) = 1 then st.pool_recycles <- st.pool_recycles + 1
    else st.circ.(p + f_used) <- 1;
    (* A pending resume (this slot's transfer was killed by a
       departure) carries its remaining cells, kind and original start
       time onto the fresh path, so the rebuild gap lands in the TTLB
       tail; otherwise draw a fresh transfer. *)
    let resume = st.s_res_rem.(i) >= 0 in
    let elephant =
      if resume then st.s_res_kind.(i) = 1
      else
        st.config.elephant_fraction > 0.
        && Engine.Rng.bernoulli rng st.config.elephant_fraction
    in
    st.arrivals <- st.arrivals + 1;
    if elephant then st.elephant_arrivals <- st.elephant_arrivals + 1;
    st.circ.(p + f_hop0) <- !g;
    st.circ.(p + f_hop1) <- !m;
    st.circ.(p + f_hop2) <- !e;
    st.circ.(p + f_remaining) <-
      (if resume then st.s_res_rem.(i)
       else if elephant then st.config.elephant_cells
       else st.config.mice_cells);
    let init = Round_law.initial st.config.strategy in
    st.circ.(p + f_cwnd) <- Round_law.cwnd init;
    st.circ.(p + f_phase) <- Round_law.phase init;
    st.circ.(p + f_kind) <- (if elephant then 1 else 0);
    st.circ.(p + f_started_ns) <-
      (if resume then st.s_res_started.(i) else st.now);
    if resume then begin
      st.resumed <- st.resumed + 1;
      st.s_res_rem.(i) <- -1
    end;
    let rtt_ns =
      2 * (st.lat_ns.(!g) + st.lat_ns.(!m) + st.lat_ns.(!e) + (2 * access_delay_ns))
    in
    st.circ.(p + f_rtt_ns) <- rtt_ns;
    let cwnd = st.circ.(p + f_cwnd) in
    register st !g cwnd;
    register st !m cwnd;
    register st !e cwnd;
    st.s_circ.(i) <- p;
    st.live <- st.live + 1;
    schedule st i rtt_ns
  end

(* One window of one shard: every slot in ascending order, each running
   its events due by [b] — [<= b], so an event at exactly the boundary
   comes before the barrier's churn and epoch ticks.  The clock is set
   to each step's instant before it runs, and to [b] at the end. *)
let sweep st b =
  let s_next = st.s_next in
  for i = st.lo to st.hi - 1 do
    while s_next.(i) <= b do
      st.now <- s_next.(i);
      st.executed <- st.executed + 1;
      let p = st.s_circ.(i) in
      if p < 0 then try_arrival st i else round st i p
    done
  done;
  st.now <- b

(* Construction: the population, the weight tables and the slot/relay
   arrays, with every slot's first think drawn.  The RNG split order
   (population, then one stream per slot, then churn) is fixed, so
   every draw is a pure function of (seed, slot) — independent of the
   shard count.  Returns the states in shard order. *)
let build_states ~seed config =
  let shards = config.shards in
  let rng = Engine.Rng.create seed in
  let pop_rng = Engine.Rng.split rng in
  let slot_rngs = Array.init config.slots (fun _ -> Engine.Rng.split rng) in
  let churn_rng = Engine.Rng.split rng in
  let n_total = config.relays + config.spare_relays in
  let specs =
    Array.of_list (Relay_gen.generate pop_rng config.population ~n:n_total)
  in
  let n = n_total in
  let cap_cps =
    Array.map
      (fun (s : Relay_gen.spec) ->
        Engine.Units.Rate.to_bytes_per_sec s.bandwidth
        /. float_of_int Backtap.Wire.cell_size)
      specs
  in
  let lat_ns =
    Array.map
      (fun (s : Relay_gen.spec) -> (s.latency :> int))
      specs
  in
  let w_all = Engine.Rng.Weighted.create cap_cps in
  let exit_ids =
    specs
    |> Array.to_list
    |> List.mapi (fun i (s : Relay_gen.spec) -> (i, s))
    |> List.filter (fun ((_, s) : int * Relay_gen.spec) ->
           List.mem Tor_model.Relay_info.Exit s.flags)
    |> List.map fst
    |> Array.of_list
  in
  if Array.length exit_ids = 0 then
    invalid_arg "Network_experiment.run: population has no exit relays";
  (* Spares (ids >= relays) start down; the initially-up population
     must be able to route on its own. *)
  if not (Array.exists (fun id -> id < config.relays) exit_ids) then
    invalid_arg "Network_experiment.run: no exit relay among the initial population";
  let w_exit =
    Engine.Rng.Weighted.create (Array.map (fun id -> cap_cps.(id)) exit_ids)
  in
  let sketch () =
    Engine.Stats.Sketch.create ~bins:config.sketch_bins ~lo:0.
      ~hi:(Engine.Time.to_sec_f config.sketch_max)
      ()
  in
  let slots = config.slots in
  let k = Shard.count ~slots ~shards in
  (* Relay-level and slot-level arrays are shared by every shard state:
     relay occupancy is frozen during parallel windows (writes go
     through the dense deltas), and each slot's record/stash/rng cells
     are touched only by its owning shard between barriers. *)
  let active = Array.make n 0 in
  let load_cells = Array.make n 0 in
  let rstatus =
    Array.init n_total (fun r -> if r < config.relays then st_up else st_down)
  in
  let vis = Array.init n_total (fun r -> if r < config.relays then 1 else 0) in
  let is_exit =
    let a = Array.make n_total false in
    Array.iter (fun id -> a.(id) <- true) exit_ids;
    a
  in
  let drain_deadline_ns = Array.make n_total 0 in
  let up_exits =
    Array.fold_left
      (fun acc id -> if id < config.relays then acc + 1 else acc)
      0 exit_ids
  in
  let s_res_rem = Array.make slots (-1) in
  let s_res_kind = Array.make slots 0 in
  let s_res_started = Array.make slots 0 in
  let circ = Array.make (slots * stride) 0 in
  let s_circ = Array.make slots (-1) in
  let s_next = Array.make slots max_int in
  let states =
    Array.init k (fun j ->
        let lo, hi = Shard.slot_range ~slots ~shards j in
        {
          config;
          think_mean_s = Engine.Time.to_sec_f config.mean_think;
          lo;
          hi;
          now = 0;
          executed = 0;
          cap_cps;
          lat_ns;
          active;
          load_cells;
          w_all;
          exit_ids;
          w_exit;
          churn = config.leave_hazard > 0. || config.join_hazard > 0.;
          n_total;
          rstatus;
          vis;
          is_exit;
          drain_deadline_ns;
          churn_rng;
          up_relays = config.relays;
          up_exits;
          s_res_rem;
          s_res_kind;
          s_res_started;
          circ;
          s_next;
          s_rng = slot_rngs;
          s_circ;
          completed = 0;
          mice_done = 0;
          elephants_done = 0;
          arrivals = 0;
          elephant_arrivals = 0;
          refused_arrivals = 0;
          admission_redraws = 0;
          delivered_cells = 0;
          rounds = 0;
          pool_recycles = 0;
          churn_departs = 0;
          churn_crashes = 0;
          churn_drains_completed = 0;
          churn_restarts = 0;
          churn_epochs = 0;
          churn_kills = 0;
          resumed = 0;
          gone_draws = 0;
          draining_refusals = 0;
          rounds_through_down = 0;
          depart_residue = 0;
          live = 0;
          ttlb_all = sketch ();
          ttlb_mice = sketch ();
          ttlb_elephants = sketch ();
          ns_all = 0;
          ns_mice = 0;
          ns_elephants = 0;
          exact =
            (if config.retain_exact then Some (Engine.Stats.Samples.create ())
             else None);
          cell_bytes = Backtap.Wire.cell_size;
          defer = false;
          d_active = Array.make n_total 0;
          d_load = Array.make n_total 0;
        })
  in
  iter_slots states think;
  states

(* Teardown: release whatever was still in flight at the horizon
   through each slot's owning state, then audit the pool — with correct
   recycling every relay's occupancy returns to zero. *)
let teardown states =
  let st0 = states.(0) in
  let abandoned = ref 0 in
  iter_slots states (fun st i ->
      let p = st.s_circ.(i) in
      if p >= 0 then begin
        incr abandoned;
        release st p;
        st.s_circ.(i) <- -1
      end);
  let orphaned_circuits = Array.fold_left ( + ) 0 st0.active in
  let orphaned_cells = Array.fold_left ( + ) 0 st0.load_cells in
  (!abandoned, orphaned_circuits, orphaned_cells)

(* The window loop.  Time advances in exchange windows no wider than
   the smallest achievable circuit RTT: within a window every shard
   sweeps its slots against the relay occupancy snapshot frozen at the
   last barrier (occupancy writes divert to per-shard dense deltas),
   and at the barrier each relay's owner folds every shard's deltas
   for it into the shared counters, churn and epoch ticks fire at
   their exact times, and the stop conditions are evaluated.  The
   window bound guarantees a circuit's first round lands in a later
   window than its arrival, so every round already sees its own
   registration; everything else a round reads is either frozen shared
   state or slot-local, making the result a pure function of (seed,
   config) — the same for every shard count, and the same whether a
   shard runs its window's events in time order or, as [sweep] does,
   slot by slot.  Returns the result plus the worker domains'
   minor-words total. *)
let run_sharded ~seed states =
  let st0 = states.(0) in
  let k = Array.length states in
  let c = st0.config in
  let goal = lifetimes_goal c in
  let churn = st0.churn in
  let window_ns =
    let min_lat = Array.fold_left Stdlib.min max_int st0.lat_ns in
    Stdlib.max 1 (2 * ((3 * min_lat) + (2 * access_delay_ns)))
  in
  let tick_ns = (c.churn_tick :> int) in
  let epoch_ns = (c.epoch_period :> int) in
  let duration_ns = (c.duration :> int) in
  let relay_owner =
    Array.init st0.n_total (fun r -> Shard.relay_shard ~seed ~shards:k r)
  in
  let team = Engine.Pool.Team.create ~shards:k () in
  Fun.protect ~finally:(fun () -> Engine.Pool.Team.shutdown team) @@ fun () ->
  let next_churn = ref tick_ns in
  let next_epoch = ref epoch_ns in
  let peak = ref 0 in
  let extra_events = ref 0 in
  let running = ref true in
  (* The two per-window jobs are built once, reading the window's end
     from [bound], so a window allocates nothing. *)
  let bound = ref 0 in
  let sweep_shard j = sweep states.(j) !bound in
  (* Exchange: deltas are additive ints, so summing every shard's cells
     for the relays a member owns, and zeroing them — disjoint writes
     by ownership — lands totals independent of application order and
     of the shard count. *)
  let exchange j =
    let active = st0.active and load = st0.load_cells in
    for r = 0 to st0.n_total - 1 do
      if relay_owner.(r) = j then
        for s = 0 to k - 1 do
          let src = states.(s) in
          active.(r) <- active.(r) + src.d_active.(r);
          load.(r) <- load.(r) + src.d_load.(r);
          src.d_active.(r) <- 0;
          src.d_load.(r) <- 0
        done
    done
  in
  let set_defer defer =
    for j = 0 to k - 1 do
      states.(j).defer <- defer
    done
  in
  while !running do
    let b = ref (st0.now + window_ns) in
    if churn then begin
      if !next_churn < !b then b := !next_churn;
      if !next_epoch < !b then b := !next_epoch
    end;
    if duration_ns > 0 && duration_ns < !b then b := duration_ns;
    let b = !b in
    (* The [unsafe_unordered_exchange] hook reverts to mid-window
       in-place application — the broken ordering the barrier protocol
       exists to prevent; see the hook's comment.  Under the hook the
       shards step one after another on this domain, in descending
       shard order, so the in-place writes land in a fixed order that
       differs between shard counts instead of racing. *)
    if !unsafe_unordered_exchange then
      for j = k - 1 downto 0 do
        sweep states.(j) b
      done
    else begin
      bound := b;
      set_defer true;
      Engine.Pool.Team.run team sweep_shard;
      set_defer false;
      Engine.Pool.Team.run team exchange
    end;
    let live = Array.fold_left (fun acc st -> acc + st.live) 0 states in
    if live > !peak then peak := live;
    if churn && b = !next_churn then begin
      churn_step st0;
      incr extra_events;
      next_churn := !next_churn + tick_ns
    end;
    if churn && b = !next_epoch then begin
      advance_epoch st0;
      incr extra_events;
      next_epoch := !next_epoch + epoch_ns
    end;
    let completed =
      Array.fold_left (fun acc st -> acc + st.completed) 0 states
    in
    if completed >= goal || (duration_ns > 0 && b >= duration_ns) then
      running := false
  done;
  let abandoned, orphaned_circuits, orphaned_cells = teardown states in
  let sum f = Array.fold_left (fun acc st -> acc + f st) 0 states in
  let merged ns_total f =
    let acc = ref (f states.(0)) in
    for j = 1 to k - 1 do
      acc := Engine.Stats.Sketch.merge !acc (f states.(j))
    done;
    (* Install the order-independent sum from the integer tallies; the
       float sums the shards accumulated depend on completion order
       within each shard, which depends on the partition. *)
    Engine.Stats.Sketch.set_sum !acc (float_of_int ns_total *. 1e-9);
    !acc
  in
  let ttlb_exact =
    let parts =
      Array.map
        (fun st ->
          match st.exact with
          | Some samples -> Engine.Stats.Samples.to_array samples
          | None -> [||])
        states
    in
    let all = Array.concat (Array.to_list parts) in
    (* Per-shard completion order is partition-dependent; the sorted
       multiset is not. *)
    Array.sort Float.compare all;
    all
  in
  ( {
      relays = c.relays;
      slots = c.slots;
      completed = sum (fun st -> st.completed);
      mice = sum (fun st -> st.mice_done);
      elephants = sum (fun st -> st.elephants_done);
      arrivals = sum (fun st -> st.arrivals);
      elephant_arrivals = sum (fun st -> st.elephant_arrivals);
      refused_arrivals = sum (fun st -> st.refused_arrivals);
      admission_redraws = sum (fun st -> st.admission_redraws);
      abandoned;
      delivered_cells = sum (fun st -> st.delivered_cells);
      rounds = sum (fun st -> st.rounds);
      pool_recycles = sum (fun st -> st.pool_recycles);
      peak_active = !peak;
      ttlb_all = merged (sum (fun st -> st.ns_all)) (fun st -> st.ttlb_all);
      ttlb_mice = merged (sum (fun st -> st.ns_mice)) (fun st -> st.ttlb_mice);
      ttlb_elephants =
        merged
          (sum (fun st -> st.ns_elephants))
          (fun st -> st.ttlb_elephants);
      ttlb_exact;
      orphaned_circuits;
      orphaned_cells;
      churn_departs = sum (fun st -> st.churn_departs);
      churn_crashes = sum (fun st -> st.churn_crashes);
      churn_drains_completed = sum (fun st -> st.churn_drains_completed);
      churn_restarts = sum (fun st -> st.churn_restarts);
      churn_epochs = sum (fun st -> st.churn_epochs);
      churn_kills = sum (fun st -> st.churn_kills);
      resumed = sum (fun st -> st.resumed);
      gone_draws = sum (fun st -> st.gone_draws);
      draining_refusals = sum (fun st -> st.draining_refusals);
      rounds_through_down = sum (fun st -> st.rounds_through_down);
      depart_residue = sum (fun st -> st.depart_residue);
      end_time = Engine.Time.ns st0.now;
      wall_events = sum (fun st -> st.executed) + !extra_events;
    },
    Engine.Pool.Team.minor_words team )

let run_with_words ~seed config =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Network_experiment.run: " ^ msg)
  in
  run_sharded ~seed (build_states ~seed config)

let run ?(seed = 42) config = fst (run_with_words ~seed config)

let run_instrumented ?(seed = 42) config =
  let w0 = Gc.minor_words () in
  let result, team_words = run_with_words ~seed config in
  (result, Gc.minor_words () -. w0 +. team_words)

let run_many ?jobs tasks =
  Engine.Pool.map_list ?jobs (fun (seed, config) -> run ~seed config) tasks

let with_strategy strategy config = { config with strategy }

let pp_result fmt (r : result) =
  Format.fprintf fmt
    "%d lifetimes (%d mice, %d elephants; %d arrivals, %d bulk) over %d \
     relays / %d slots"
    r.completed r.mice r.elephants r.arrivals r.elephant_arrivals r.relays
    r.slots;
  if r.refused_arrivals > 0 then
    Format.fprintf fmt ", %d refused arrivals" r.refused_arrivals;
  if r.abandoned > 0 then Format.fprintf fmt ", %d abandoned" r.abandoned;
  let q p =
    Option.value ~default:nan (Engine.Stats.Sketch.quantile_opt r.ttlb_all p)
  in
  Format.fprintf fmt ", ttlb p50/p90/p99 %.3f/%.3f/%.3f s" (q 0.5) (q 0.9)
    (q 0.99);
  Format.fprintf fmt ", %d cells, %d rounds, peak %d live, %d recycles"
    r.delivered_cells r.rounds r.peak_active r.pool_recycles;
  if r.orphaned_circuits > 0 || r.orphaned_cells > 0 then
    Format.fprintf fmt ", ORPHANS %d circuits / %d cells" r.orphaned_circuits
      r.orphaned_cells;
  if r.churn_departs > 0 || r.churn_restarts > 0 then begin
    Format.fprintf fmt
      ";@ churn: %d departs (%d crashes, %d drains done), %d restarts, %d \
       epochs, %d kills, %d resumed, %d gone draws, %d draining refusals"
      r.churn_departs r.churn_crashes r.churn_drains_completed
      r.churn_restarts r.churn_epochs r.churn_kills r.resumed r.gone_draws
      r.draining_refusals;
    if r.rounds_through_down > 0 || r.depart_residue > 0 then
      Format.fprintf fmt ", VIOLATIONS %d rounds-through-down / %d residue"
        r.rounds_through_down r.depart_residue
  end
