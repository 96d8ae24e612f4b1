(* The repository benchmark.  One process runs one workload on one
   domain: the three startup strategies of one experiment in sequence,
   repeated for [--seconds], every strategy run checked.  Tracing off
   (the default) prints the end-to-end metrics; [--trace 1] prints the
   per-layer metrics instead.  README.md in this directory explains
   every metric and why each workload exists; run.py builds this
   program and is the command BENCHMARK.json names. *)

module Ctl = Circuitstart.Controller
module Net = Workload.Network_experiment
module Star = Workload.Star_experiment
module Crowd = Workload.Overload_experiment
module Time = Engine.Time

let clock = Unix.gettimeofday

let strategies =
  [| ("cs", Ctl.Circuit_start); ("ss", Ctl.Slow_start); ("pr", Ctl.Predictive) |]

(* ------------------------------------------------------------------ *)
(* Order statistics *)

(* [p] in [0, 1]; 0 for no samples (a run whose every operation failed). *)
let quantile xs p = if Array.length xs = 0 then 0. else Engine.Stats.percentile xs (100. *. p)

let median a = quantile a 0.5

let ratio num den = if den = 0. then 0. else num /. den

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, summarised when the run ends.  Off unless the
   run is traced, where each one costs two clock reads and a cons. *)

module Span = struct
  type t = { name : string; parent : int; start : float; mutable stop : float }

  let enabled = ref false
  let log = ref []
  let count = ref 0
  let stack = ref []

  let record name f =
    if not !enabled then f ()
    else begin
      let id = !count in
      incr count;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      let s = { name; parent; start = clock (); stop = nan } in
      log := s :: !log;
      stack := id :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.stop <- clock ();
          stack := List.tl !stack)
        f
    end

  (* Per span name, in first-seen order: calls, total seconds, and self
     seconds (total minus the time its direct children cover). *)
  let summary () =
    let spans = Array.of_list (List.rev !log) in
    let child_time = Array.make (Array.length spans) 0. in
    Array.iter
      (fun s ->
        if s.parent >= 0 then
          child_time.(s.parent) <- child_time.(s.parent) +. (s.stop -. s.start))
      spans;
    let order = ref [] in
    let table = Hashtbl.create 16 in
    Array.iteri
      (fun i s ->
        let calls, total, self =
          match Hashtbl.find_opt table s.name with
          | Some v -> v
          | None ->
              order := s.name :: !order;
              (0, 0., 0.)
        in
        let d = s.stop -. s.start in
        Hashtbl.replace table s.name
          (calls + 1, total +. d, self +. d -. child_time.(i)))
      spans;
    List.rev_map (fun name -> (name, Hashtbl.find table name)) !order
end

(* GC pause time from the runtime's own event ring, read on the calling
   domain: the sum of its outermost runtime phases (minor collections,
   major slices and what they nest). *)
module Gc_pause = struct
  let depth = ref 0
  let began = ref 0L
  let total_ns = ref 0L
  let lost = ref 0

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun dom ts _ ->
        if dom = 0 then begin
          if !depth = 0 then began := Runtime_events.Timestamp.to_int64 ts;
          incr depth
        end)
      ~runtime_end:(fun dom ts _ ->
        if dom = 0 && !depth > 0 then begin
          decr depth;
          if !depth = 0 then
            total_ns :=
              Int64.add !total_ns
                (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !began)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor =
    lazy
      (Runtime_events.start ();
       Runtime_events.create_cursor None)

  let poll () =
    ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None : int)

  (* The ring is small (run.py sets it), so that its file stays smaller
     than this program's own executable under any file-size limit the
     build got through.  A systhread drains it while [f] runs; it gets
     the domain at every thread switch, about every 50 ms. *)
  let draining f =
    let stop = Atomic.make false in
    let drainer =
      Thread.create
        (fun () ->
          while not (Atomic.get stop) do
            poll ();
            Thread.delay 0.005
          done)
        ()
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join drainer)
      f

  let reset () =
    poll ();
    depth := 0;
    total_ns := 0L;
    lost := 0

  let seconds () =
    poll ();
    Int64.to_float !total_ns /. 1e9
end

(* ------------------------------------------------------------------ *)
(* Operations: every strategy run is one.  A run that raises or fails a
   check is counted failed and contributes no timing. *)

type ops = { mutable attempted : int; mutable failed : int; mutable why : string list }

let new_ops () = { attempted = 0; failed = 0; why = [] }

(* [attempt ops f] runs [f], which returns the check failures of its
   result; [true] iff it returned none. *)
let attempt ops label f =
  ops.attempted <- ops.attempted + 1;
  let problems =
    match f () with
    | problems -> problems
    | exception e -> [ "raised " ^ Printexc.to_string e ]
  in
  if problems = [] then true
  else begin
    ops.failed <- ops.failed + 1;
    if List.length ops.why < 8 then
      ops.why <-
        ops.why @ [ Printf.sprintf "%s: %s" label (String.concat "; " problems) ];
    false
  end

let digest r = Digest.to_hex (Digest.string (Marshal.to_string r []))

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* The input shape a workload's layer drivers must reproduce, derived
   from the workload's own config. *)
type shape = {
  timers : int;  (** Reusable timers live at once on the workload's sim. *)
  geometry : (int * int) option;
      (** Timer-wheel [tick_bits, wheel_slots]; [None] = the {!Engine.Sim}
          default. *)
  timer_delay : Time.t;  (** Typical re-arm delay of those timers. *)
  hub_degree : int;  (** Leaves on the star; 0 = no packet network. *)
  link_rate : Engine.Units.Rate.t;  (** Endpoint access-link rate. *)
  link_delay : Time.t;  (** Endpoint access-link delay. *)
  population : int;  (** Relays drawn by [Relay_gen.generate]; 0 = none. *)
  relay_config : Workload.Relay_gen.config;
  exclude_len : int;  (** Exclusion-list length of a path draw; 0 = none. *)
  hops : int;
  sketch : (int * float) option;  (** TTLB sketch [bins, max seconds]. *)
  params : Circuitstart.Params.t option;
      (** Controller parameters when {!Ctl} is on the data path. *)
}

let no_shape =
  {
    timers = 0;
    geometry = None;
    timer_delay = Time.zero;
    hub_degree = 0;
    link_rate = Engine.Units.Rate.mbit 100;
    link_delay = Time.zero;
    population = 0;
    relay_config = Workload.Relay_gen.default_config;
    exclude_len = 0;
    hops = 3;
    sketch = None;
    params = None;
  }

type 'r spec = {
  name : string;
  lifetimes : int;  (** Lifetimes in one strategy run. *)
  run : cut:bool -> Ctl.strategy -> 'r;
      (** [cut] stops the simulated horizon at its first instant: what is
          left is the set-up of the world. *)
  check : 'r -> string list;
  plant : 'r -> 'r;  (** A copy with a defect [check] must catch. *)
  events : 'r -> int;
  layer_counts : 'r array -> (string * float) list;
      (** Exact per-layer counts over one run of each strategy. *)
  ttlb : 'r -> float * float;  (** Modelled p50/p99 TTLB, seconds. *)
  shape : shape;
  observed : unit -> (string * int * int) list;
      (** [(what, shape value, value seen in the workload's own world)]. *)
  declare : (Engine.Sim.t -> Workload.Tor_net.builder) option;
      (** The workload's star, declared but not finalized. *)
}

type workload = W : 'r spec -> workload

let sum rs f = Array.fold_left (fun acc r -> acc + f r) 0 rs |> float_of_int

(* Serialisation time of one cell at [rate]: the tx timer's period. *)
let cell_time rate =
  Time.of_sec_f
    (float_of_int (8 * Backtap.Wire.cell_size) /. float_of_int (Engine.Units.Rate.to_bps rate))

(* --- consensus and consensus-churn: Network_experiment --- *)

(* The churn-scale command's churn settings at five times its hazard
   rates (the same 83% of relays up), so that kills, resumes and
   redraws are a visible share of host time. *)
let with_churn (c : Net.config) =
  {
    c with
    Net.leave_hazard = 0.1;
    join_hazard = 0.5;
    crash_fraction = 0.5;
    drain_grace = Time.s 2;
    epoch_period = Time.s 5;
    spare_relays = c.relays / 10;
  }

let consensus ~churn ~seed =
  let base =
    { Net.default_config with relays = 2_000; slots = 20_000; target_lifetimes = 30_000 }
  in
  let c = if churn then with_churn base else base in
  let goal = Net.lifetimes_goal c in
  let run ~cut strategy =
    Net.run ~seed
      { c with strategy; duration = (if cut then Time.ns 1 else c.duration) }
  in
  let check (r : Net.result) =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      ([
         (r.completed >= goal, Printf.sprintf "completed %d < goal %d" r.completed goal);
         (r.orphaned_circuits = 0, Printf.sprintf "orphaned_circuits %d" r.orphaned_circuits);
         (r.orphaned_cells = 0, Printf.sprintf "orphaned_cells %d" r.orphaned_cells);
       ]
      @
      if churn then
        [
          (r.rounds_through_down = 0, Printf.sprintf "rounds_through_down %d" r.rounds_through_down);
          (r.depart_residue = 0, Printf.sprintf "depart_residue %d" r.depart_residue);
        ]
      else [])
  in
  let layer_counts rs =
    let s = sum rs in
    let tries = s (fun (r : Net.result) -> r.arrivals + r.refused_arrivals) in
    [
      ("workload.rounds_per_lifetime", ratio (s (fun r -> r.rounds)) (s (fun r -> r.completed)));
      ("workload.pool_recycle_ratio", ratio (s (fun r -> r.pool_recycles)) (s (fun r -> r.arrivals)));
      ("workload.peak_active",
       float_of_int (Array.fold_left (fun m (r : Net.result) -> max m r.peak_active) 0 rs));
      ("workload.churn_kills_per_lifetime",
       ratio (s (fun r -> r.churn_kills)) (s (fun r -> r.completed)));
      ("workload.resumed_ratio", ratio (s (fun r -> r.resumed)) (s (fun r -> r.churn_kills)));
      ("tor.admission_redraws_per_arrival", ratio (s (fun r -> r.admission_redraws)) tries);
      ("tor.refused_arrival_ratio", ratio (s (fun r -> r.refused_arrivals)) tries);
      ("tor.gone_draws_per_arrival", ratio (s (fun r -> r.gone_draws)) tries);
      ("tor.draining_refusals_per_arrival", ratio (s (fun r -> r.draining_refusals)) tries);
    ]
  in
  let q (r : Net.result) p =
    Option.value ~default:0. (Engine.Stats.Sketch.quantile_opt r.ttlb_all p)
  in
  let shape =
    {
      no_shape with
      timers = c.slots;
      (* Network_experiment's wheel: 2^20 ns ticks, 1024 slots. *)
      geometry = Some (20, 1024);
      timer_delay = c.mean_think;
      population = c.relays + c.spare_relays;
      relay_config = c.population;
      sketch = Some (c.sketch_bins, Time.to_sec_f c.sketch_max);
    }
  in
  let observed () =
    let r = run ~cut:true Ctl.Circuit_start in
    [
      ("timers = slots", shape.timers, r.slots);
      ("population", shape.population, r.relays + c.spare_relays);
    ]
  in
  W
    {
      name = (if churn then "consensus-churn" else "consensus");
      lifetimes = goal;
      run;
      check;
      plant =
        (fun r ->
          if churn then { r with depart_residue = 1 } else { r with orphaned_circuits = 1 });
      events = (fun r -> r.wall_events);
      layer_counts;
      ttlb = (fun r -> (q r 0.5, q r 0.99));
      shape;
      observed;
      declare = None;
    }

(* --- star-paired: Star_experiment, the paper's F1c --- *)

let star ~seed =
  let c = { Star.default_config with seed; transfer_bytes = Engine.Units.kib 64 } in
  let run ~cut strategy =
    Star.run
      { c with transport = Star.Backtap strategy; horizon = (if cut then Time.ns 1 else c.horizon) }
  in
  let check (r : Star.result) =
    if r.completed = r.total then []
    else [ Printf.sprintf "completed %d of %d" r.completed r.total ]
  in
  let layer_counts rs =
    let n = float_of_int (Array.length rs) in
    [
      ("netsim.max_link_queue_kib",
       float_of_int (Array.fold_left (fun m (r : Star.result) -> max m r.max_link_queue_bytes) 0 rs)
       /. 1024.);
      ("netsim.mean_link_queue_hwm_kib",
       Array.fold_left (fun a (r : Star.result) -> a +. r.mean_link_queue_hwm_bytes) 0. rs
       /. n /. 1024.);
      ("backtap.retransmissions_per_lifetime",
       ratio
         (sum rs (fun (r : Star.result) ->
              List.fold_left (fun a (o : Star.circuit_outcome) -> a + o.retransmissions) 0 r.outcomes))
         (sum rs (fun r -> r.total)));
    ]
  in
  let hub_degree = c.relay_count + (2 * c.circuit_count) in
  (* The star exactly as Star_experiment declares it. *)
  let declare sim =
    let b = Workload.Tor_net.builder sim () in
    let net_rng = Engine.Rng.split (Engine.Rng.create seed) in
    List.iter (Workload.Tor_net.add_relay b)
      (Workload.Relay_gen.generate net_rng c.relay_config ~n:c.relay_count);
    for i = 0 to c.circuit_count - 1 do
      List.iter
        (fun name ->
          ignore
            (Workload.Tor_net.add_endpoint b ~name:(Printf.sprintf "%s%02d" name i)
               ~rate:c.endpoint_rate ~delay:c.endpoint_delay
              : Netsim.Node_id.t))
        [ "client"; "server" ]
    done;
    b
  in
  let shape =
    {
      no_shape with
      timers = 2 * hub_degree;
      timer_delay = cell_time c.endpoint_rate;
      hub_degree;
      link_rate = c.endpoint_rate;
      link_delay = c.endpoint_delay;
      population = c.relay_count;
      relay_config = c.relay_config;
      hops = c.relays_per_circuit;
      params = Some c.params;
    }
  in
  let observed () =
    let r = run ~cut:true Ctl.Circuit_start in
    [ ("hub degree - relays = 2 x circuits", hub_degree - c.relay_count, 2 * r.total) ]
  in
  W
    {
      name = "star-paired";
      lifetimes = c.circuit_count;
      run;
      check;
      plant = (fun r -> { r with completed = r.total - 1 });
      events = (fun r -> r.wall_events);
      layer_counts;
      ttlb = (fun r -> (quantile r.ttlb_seconds 0.5, quantile r.ttlb_seconds 0.99));
      shape;
      observed;
      declare = Some declare;
    }

(* --- flash-crowd: Overload_experiment --- *)

let crowd_relay_rate base i =
  Engine.Units.Rate.bps (Engine.Units.Rate.to_bps base * (1 + (i mod 4)))

let flash_crowd ~seed =
  let c = { Crowd.default_config with relay_count = 16; sessions = 200 } in
  let byte_cap = Option.value ~default:max_int c.max_queued_bytes in
  let run ~cut strategy =
    Crowd.run ~seed { c with strategy; horizon = (if cut then Time.ns 1 else c.horizon) }
  in
  let check (r : Crowd.result) =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (r.completed + r.exhausted + r.timed_out = r.sessions,
         Printf.sprintf "%d completed + %d exhausted + %d timed out <> %d sessions"
           r.completed r.exhausted r.timed_out r.sessions);
        (r.relay_byte_hwm <= byte_cap + Backtap.Wire.cell_size,
         Printf.sprintf "relay_byte_hwm %d over budget %d + one cell" r.relay_byte_hwm byte_cap);
      ]
  in
  let layer_counts rs =
    let s = sum rs in
    [
      ("tor.refusal_rate",
       ratio (s (fun (r : Crowd.result) -> r.refusals)) (s (fun r -> r.admitted + r.refusals)));
      ("tor.oom_kills", s (fun r -> r.oom_kills));
      ("tor.rebuilds_per_session", ratio (s (fun r -> r.rebuilds)) (s (fun r -> r.sessions)));
      ("tor.exhausted_ratio", ratio (s (fun r -> r.exhausted)) (s (fun r -> r.sessions)));
    ]
  in
  let hub_degree = c.relay_count + c.sessions + 1 in
  (* The star exactly as Overload_experiment declares it. *)
  let declare sim =
    let b = Workload.Tor_net.builder sim ~queue:c.link_queue () in
    for i = 0 to c.relay_count - 1 do
      Workload.Tor_net.add_relay b
        {
          Workload.Relay_gen.nickname = Printf.sprintf "relay%d" i;
          bandwidth = crowd_relay_rate c.relay_base_rate i;
          latency = c.access_delay;
          flags = Tor_model.Relay_info.[ Guard; Exit; Fast; Stable ];
        }
    done;
    for i = 0 to c.sessions do
      ignore
        (Workload.Tor_net.add_endpoint b
           ~name:(if i = c.sessions then "server" else Printf.sprintf "client%d" i)
           ~rate:c.endpoint_rate ~delay:c.access_delay
          : Netsim.Node_id.t)
    done;
    b
  in
  let shape =
    {
      no_shape with
      timers = 2 * hub_degree;
      timer_delay = cell_time c.endpoint_rate;
      hub_degree;
      link_rate = c.endpoint_rate;
      link_delay = c.access_delay;
      exclude_len = c.hops;
      hops = c.hops;
      params = Some c.params;
    }
  in
  let observed () =
    let seen = ref (0, 0) in
    ignore
      (Crowd.run ~seed
         ~relay_probe:(fun _ ctls ->
           let topo =
             match ctls with
             | ctl :: _ ->
                 Netsim.Network.topology
                   (Tor_model.Switchboard.network (Tor_model.Relay_ctl.switchboard ctl))
             | [] -> failwith "flash-crowd: no relays"
           in
           seen := (List.length ctls, Netsim.Topology.node_count topo - 1))
         { c with horizon = Time.ns 1 }
        : Crowd.result);
    [
      ("relays", c.relay_count, fst !seen);
      ("hub degree", hub_degree, snd !seen);
    ]
  in
  W
    {
      name = "flash-crowd";
      lifetimes = c.sessions;
      run;
      check;
      plant = (fun r -> { r with relay_byte_hwm = byte_cap + Backtap.Wire.cell_size + 1 });
      events = (fun r -> r.wall_events);
      layer_counts;
      ttlb = (fun _ -> (0., 0.));
      shape;
      observed;
      declare = Some declare;
    }

let workloads =
  [
    ("consensus", consensus ~churn:false);
    ("consensus-churn", consensus ~churn:true);
    ("star-paired", star);
    ("flash-crowd", flash_crowd);
  ]

(* ------------------------------------------------------------------ *)
(* Layer drivers: timed calls into one layer's public functions with
   inputs shaped like the workload.  Each returns the median over
   [reps] batches of seconds per unit of work. *)

let reps = 5

let per_unit f =
  ignore (f () : int);
  median
    (Array.init reps (fun _ ->
         let t0 = clock () in
         let units = f () in
         (clock () -. t0) /. float_of_int units))

let timer_fire (s : shape) =
  let sim =
    match s.geometry with
    | Some (tick_bits, wheel_slots) ->
        Engine.Sim.create ~capacity:s.timers ~tick_bits ~wheel_slots ()
    | None -> Engine.Sim.create ()
  in
  let rng = Engine.Rng.create 11 in
  let d = Int64.to_int (Time.to_ns s.timer_delay) in
  let delays = Array.init 4096 (fun _ -> Time.ns ((d / 2) + Engine.Rng.int rng (d + 1))) in
  let fired = ref 0 and budget = ref 0 in
  let timers = ref [||] in
  timers :=
    Array.init s.timers (fun i ->
        Engine.Sim.Timer.create sim (fun () ->
            incr fired;
            if !fired < !budget then
              Engine.Sim.Timer.arm_after sim !timers.(i) delays.(!fired land 4095)));
  let rounds = max 2 (200_000 / s.timers) in
  per_unit (fun () ->
      fired := 0;
      budget := rounds * s.timers;
      Array.iteri
        (fun i tm -> Engine.Sim.Timer.arm_after sim tm delays.(i land 4095))
        !timers;
      Engine.Sim.run sim;
      !fired)

let schedule_after (s : shape) =
  let sim = Engine.Sim.create () in
  let d = Int64.to_int (Time.to_ns s.link_delay) in
  let rng = Engine.Rng.create 13 in
  let delays = Array.init 4096 (fun _ -> Time.ns ((d / 2) + Engine.Rng.int rng (d + 1))) in
  let fired = ref 0 and budget = ref 0 in
  let rec hop () =
    incr fired;
    if !fired < !budget then
      ignore (Engine.Sim.schedule_after sim delays.(!fired land 4095) hop : Engine.Sim.handle)
  in
  per_unit (fun () ->
      fired := 0;
      budget := 200_000;
      (* One propagation chain per directed link. *)
      for i = 1 to s.timers do
        ignore (Engine.Sim.schedule_after sim delays.(i land 4095) hop : Engine.Sim.handle)
      done;
      Engine.Sim.run sim;
      !fired)

let sketch_add (bins, hi) =
  let rng = Engine.Rng.create 17 in
  let xs = Array.init 4096 (fun _ -> Engine.Rng.exponential rng ~mean:2.) in
  per_unit (fun () ->
      let sk = Engine.Stats.Sketch.create ~bins ~lo:0. ~hi () in
      for i = 0 to 999_999 do
        Engine.Stats.Sketch.add sk xs.(i land 4095)
      done;
      1_000_000)

let relay_gen ~seed (s : shape) =
  let calls = max 1 (20_000 / s.population) in
  per_unit (fun () ->
      let rng = Engine.Rng.create seed in
      for _ = 1 to calls do
        ignore
          (Workload.Relay_gen.generate rng s.relay_config ~n:s.population
            : Workload.Relay_gen.spec list)
      done;
      calls)

let routes declare =
  per_unit (fun () ->
      let b = declare (Engine.Sim.create ()) in
      ignore (Span.record "netsim.finalize" (fun () -> Workload.Tor_net.finalize b)
              : Workload.Tor_net.t);
      1)

(* A bare star of [hub_degree] leaves: every packet goes leaf -> hub ->
   leaf, and the hub hop looks its outgoing link up by scanning the
   hub's adjacency list. *)
let forward (s : shape) =
  let sim = Engine.Sim.create () in
  let leaves = List.init s.hub_degree (fun i -> (Printf.sprintf "l%d" i, s.link_rate, s.link_delay)) in
  let topo, _hub, ids = Netsim.Topology.star sim ~hub:"hub" ~leaves () in
  let net = Netsim.Network.create topo in
  let ids = Array.of_list ids in
  let delivered = ref 0 in
  Array.iter (fun n -> Netsim.Network.set_local_handler net n (fun _ -> incr delivered)) ids;
  let rng = Engine.Rng.create 19 in
  let n = Array.length ids in
  let pairs =
    Array.init 4096 (fun _ ->
        let a = Engine.Rng.int rng n in
        let b = (a + 1 + Engine.Rng.int rng (n - 1)) mod n in
        (ids.(a), ids.(b)))
  in
  let payload = Netsim.Payload.Raw "" in
  per_unit (fun () ->
      delivered := 0;
      for i = 0 to 19_999 do
        let src, dst = pairs.(i land 4095) in
        Netsim.Network.send net
          (Netsim.Network.make_packet net ~src ~dst ~size:Backtap.Wire.cell_size payload)
      done;
      Engine.Sim.run sim;
      !delivered)

let select_path ~seed (s : shape) dir =
  let rng = Engine.Rng.create seed in
  let relays = Array.of_list (Tor_model.Directory.relays dir) in
  let exclude =
    Array.init 64 (fun i ->
        List.init s.exclude_len (fun j ->
            relays.(((i * 7) + j) mod Array.length relays).Tor_model.Relay_info.node))
  in
  per_unit (fun () ->
      for i = 0 to 19_999 do
        match
          Tor_model.Directory.select_path dir rng ~exclude:exclude.(i land 63) ~hops:s.hops ()
        with
        | Some _ -> ()
        | None -> failwith "select_path driver: no path"
      done;
      20_000)

(* A fixed synthetic ack stream: one ack per 400 us (a 10 Mbit/s
   relay's cell time) over a 40 ms path whose queueing delay saw-tooths
   up to 40 ms more, replayed through a fresh controller every 2048
   acks so ramp-up and its exit stay in the mix. *)
let feedback params strategy =
  let rtts = Array.init 2048 (fun i -> Time.us (40_000 + (i mod 400 * 100))) in
  per_unit (fun () ->
      let acks = ref 0 in
      for _ = 1 to 20 do
        let ctl = Ctl.create ~params strategy in
        Array.iteri
          (fun i rtt ->
            if Ctl.send_allowance ctl >= 0 then incr acks;
            Ctl.on_feedback ctl ~now:(Time.us (i * 400)) ~rtt ())
          rtts
      done;
      !acks)

(* ------------------------------------------------------------------ *)
(* Measurement *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  peak_of : string option;  (** Internal: measure one strategy's peak heap. *)
}

let usage =
  "bench.exe --workload consensus|consensus-churn|star-paired|flash-crowd [--seed N] \
   [--seconds S] [--trace 0|1]"

let default_seed = 1

let parse_args () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10. and trace = ref 0 in
  let peak_of = ref None in
  let bad msg =
    prerr_endline ("bench: " ^ msg ^ "\nusage: " ^ usage);
    exit 2
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, Printf.sprintf "N workload seed (default %d)" default_seed);
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer instead of end-to-end metrics");
      ("--peak-heap-of", Arg.String (fun l -> peak_of := Some l), "");
    ]
    (fun a -> bad ("unexpected argument " ^ a))
    usage;
  if not (List.mem_assoc !workload workloads) then bad ("unknown workload '" ^ !workload ^ "'");
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if not (!seconds > 0.) then bad "--seconds must be positive";
  if not (Option.fold ~none:true ~some:(fun l -> Array.exists (fun (l', _) -> l' = l) strategies) !peak_of) then
    bad "--peak-heap-of takes cs, ss or pr";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; peak_of = !peak_of }

let top_heap_mib () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* The peak major heap of one strategy run, each in a fresh process of
   this program: measured within one process, the second and third
   strategies' peaks depend on how much of the previous run's garbage a
   major cycle happens to have swept. *)
let peak_heap_mib ops args =
  let one label =
    let out = ref nan in
    ignore
      (attempt ops ("peak." ^ label) (fun () ->
           let ic =
             Unix.open_process_args_in Sys.executable_name
               [|
                 Sys.executable_name; "--workload"; args.workload; "--seed";
                 string_of_int args.seed; "--peak-heap-of"; label;
               |]
           in
           let line = In_channel.input_all ic in
           match Unix.close_process_in ic with
           | Unix.WEXITED 0 ->
               out := float_of_string (String.trim line);
               []
           | _ -> [ "peak-heap child failed" ])
        : bool);
    !out
  in
  Array.fold_left (fun m (label, _) -> Float.max m (one label)) 0. strategies

(* One iteration: the three strategies in sequence on this domain, from
   a compacted heap so that every iteration starts where a fresh
   process would.  Host time and allocation cover the [run] calls
   only, not their checks. *)
type stats = {
  host_s : float;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let iterate (type r) (w : r spec) ops ~reference =
  Gc.compact ();
  let host_s = ref 0. and minor = ref 0. and promoted = ref 0. in
  let minors = ref 0 and majors = ref 0 in
  let results =
    Array.mapi
      (fun i (label, strategy) ->
        let out = ref None in
        let ok =
          attempt ops ("run." ^ label) (fun () ->
              let g0 = Gc.quick_stat () in
              let t0 = clock () in
              let r = Span.record ("run." ^ label) (fun () -> w.run ~cut:false strategy) in
              let t1 = clock () in
              let g1 = Gc.quick_stat () in
              host_s := !host_s +. (t1 -. t0);
              minor := !minor +. (g1.minor_words -. g0.minor_words);
              promoted := !promoted +. (g1.promoted_words -. g0.promoted_words);
              minors := !minors + (g1.minor_collections - g0.minor_collections);
              majors := !majors + (g1.major_collections - g0.major_collections);
              out := Some r;
              let d = digest r in
              let same =
                match reference.(i) with
                | None ->
                    reference.(i) <- Some d;
                    []
                | Some d0 when d0 = d -> []
                | Some d0 -> [ Printf.sprintf "digest %s differs from the first run's %s" d d0 ]
              in
              w.check r @ same)
        in
        if ok then !out else None)
      strategies
  in
  let stats =
    {
      host_s = !host_s;
      minor_words = !minor;
      promoted_words = !promoted;
      minor_collections = !minors;
      major_collections = !majors;
    }
  in
  if Array.for_all Option.is_some results then Some (stats, Array.map Option.get results)
  else None

(* Set-up time: the same three [run] calls with the horizon cut to its
   first instant.  [None] if one of them raised. *)
let setup_once (type r) (w : r spec) ops =
  Gc.compact ();
  let total = ref 0. in
  let ok =
    Array.for_all Fun.id
      (Array.map
         (fun (label, strategy) ->
           attempt ops ("setup." ^ label) (fun () ->
               let t0 = clock () in
               ignore (Span.record ("setup." ^ label) (fun () -> w.run ~cut:true strategy) : r);
               total := !total +. (clock () -. t0);
               []))
         strategies)
  in
  if ok then Some !total else None

exception Self_test of string

let self_fail fmt = Printf.ksprintf (fun s -> raise (Self_test s)) fmt

(* The drivers' input shapes must be the workload's: compare the shape
   derived from the config with the world the workload really builds,
   and with the star the drivers build from the shape.  Returns that
   star, finalized, for the path-selection driver. *)
let check_shapes (type r) (w : r spec) =
  List.iter
    (fun (what, want, seen) ->
      if want <> seen then
        self_fail "%s: driver shape %s = %d but the workload has %d" w.name what want seen)
    (w.observed ());
  Option.map
    (fun declare ->
      let net = Workload.Tor_net.finalize (declare (Engine.Sim.create ())) in
      let degree =
        List.length
          (Netsim.Topology.neighbors
             (Netsim.Network.topology (Workload.Tor_net.network net))
             (Workload.Tor_net.hub net))
      in
      if degree <> w.shape.hub_degree then
        self_fail "%s: declared star has hub degree %d, shape says %d" w.name degree
          w.shape.hub_degree;
      net)
    w.declare

(* A planted defect, a changed digest and a raising run must each count
   as one failed operation and yield no timing. *)
let check_accounting (type r) (w : r spec) (good : r) =
  let probe = new_ops () in
  let outcome f = attempt probe "self-test" f in
  if not (outcome (fun () -> w.check good)) then
    self_fail "%s: a good result fails its checks" w.name;
  if outcome (fun () -> w.check (w.plant good)) then
    self_fail "%s: a planted defect passes the checks" w.name;
  if outcome (fun () -> failwith "planted exception") then
    self_fail "%s: a raising run is not counted failed" w.name;
  (* Three runs return [good], every later one a digest-changing copy. *)
  let calls = ref 0 in
  let fake =
    {
      w with
      run =
        (fun ~cut:_ _ ->
          incr calls;
          if !calls <= 3 then good else w.plant good);
      check = (fun _ -> []);
    }
  in
  let reference = Array.make 3 None in
  let first = iterate fake probe ~reference in
  let second = iterate fake probe ~reference in
  if first = None || second <> None then
    self_fail "%s: a result whose digest changed is not counted failed" w.name;
  if probe.attempted <> 9 || probe.failed <> 5 then
    self_fail "%s: self-test counted %d failed of %d, expected 5 of 9" w.name probe.failed
      probe.attempted

let per_layer_units =
  [
    ("engine.events_per_lifetime", "count");
    ("engine.timer_fire_ns", "ns");
    ("engine.schedule_after_ns", "ns");
    ("engine.sketch_add_ns", "ns");
    ("workload.rounds_per_lifetime", "count");
    ("workload.pool_recycle_ratio", "ratio");
    ("workload.peak_active", "count");
    ("workload.relay_gen_s", "s");
    ("workload.churn_kills_per_lifetime", "count");
    ("workload.resumed_ratio", "ratio");
    ("tor.admission_redraws_per_arrival", "count");
    ("tor.refused_arrival_ratio", "ratio");
    ("tor.gone_draws_per_arrival", "count");
    ("tor.draining_refusals_per_arrival", "count");
    ("tor.refusal_rate", "ratio");
    ("tor.oom_kills", "count");
    ("tor.rebuilds_per_session", "count");
    ("tor.exhausted_ratio", "ratio");
    ("tor.select_path_ns", "ns");
    ("netsim.routes_s", "s");
    ("netsim.forward_ns", "ns");
    ("netsim.max_link_queue_kib", "KiB");
    ("netsim.mean_link_queue_hwm_kib", "KiB");
    ("backtap.retransmissions_per_lifetime", "count");
    ("core.feedback_ns.cs", "ns");
    ("core.feedback_ns.ss", "ns");
    ("core.feedback_ns.pr", "ns");
    ("gc.minor_collections_per_lifetime", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_lifetime", "words");
    ("gc.pause_s", "s");
    ("gc.pause_share", "ratio");
    ("sim.ttlb_p50_s.cs", "s");
    ("sim.ttlb_p50_s.ss", "s");
    ("sim.ttlb_p50_s.pr", "s");
    ("sim.ttlb_p99_s.cs", "s");
    ("sim.ttlb_p99_s.ss", "s");
    ("sim.ttlb_p99_s.pr", "s");
    ("trace.overhead", "ratio");
  ]

(* The drivers that apply to a workload, by metric name; every other
   driver metric reads 0 (the layer is not on the workload's path). *)
let drivers (s : shape) ~seed ~declare ~net =
  let ns f () = 1e9 *. f () in
  List.concat
    [
      [ ("engine.timer_fire_ns", ns (fun () -> timer_fire s)) ];
      (if s.hub_degree > 0 then
         [
           ("engine.schedule_after_ns", ns (fun () -> schedule_after s));
           ("netsim.forward_ns", ns (fun () -> forward s));
         ]
       else []);
      (match s.sketch with
      | Some sk -> [ ("engine.sketch_add_ns", ns (fun () -> sketch_add sk)) ]
      | None -> []);
      (if s.population > 0 then [ ("workload.relay_gen_s", fun () -> relay_gen ~seed s) ]
       else []);
      (match declare with Some d -> [ ("netsim.routes_s", fun () -> routes d) ] | None -> []);
      (match net with
      | Some net when s.exclude_len > 0 ->
          [
            ( "tor.select_path_ns",
              ns (fun () -> select_path ~seed s (Workload.Tor_net.directory net)) );
          ]
      | _ -> []);
      (match s.params with
      | Some params ->
          Array.to_list
            (Array.map
               (fun (label, strategy) ->
                 ("core.feedback_ns." ^ label, ns (fun () -> feedback params strategy)))
               strategies)
      | None -> []);
    ]

let json_metric (name, unit_, v) =
  let v = if Float.is_finite v then v else 0. in
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_

let summary_line name unit_ xs =
  Printf.printf "  %-26s median %.6g %s  (q1 %.6g, q3 %.6g, n=%d)\n" name (median xs) unit_
    (quantile xs 0.25) (quantile xs 0.75) (Array.length xs)

let measure (type r) (w : r spec) args =
  let started = clock () in
  let ops = new_ops () in
  let reference = Array.make 3 None in
  let net = check_shapes w in
  (* First iteration: reference digests, and the good result the
     accounting self-test plants into. *)
  let first = iterate w ops ~reference in
  Option.iter (fun (_, rs) -> check_accounting w rs.(0)) first;
  let peak = if args.trace then 0. else peak_heap_mib ops args in
  (* Timed iterations fill [--seconds] from the start of the process (a
     traced run keeps the second half for its traced iteration and the
     drivers), stopping before an iteration that would overrun it.
     Set-up samples are interleaved to take about a tenth of the time,
     so that both medians span the whole run. *)
  let deadline = started +. (if args.trace then args.seconds /. 2. else args.seconds) in
  let timed = ref [] and setups = ref [] and iterations = ref 0 in
  let iteration_s = ref (match first with Some (st, _) -> st.host_s | None -> 0.) in
  let setup_s = ref 0. in
  let add_setup () =
    Option.iter
      (fun s ->
        setups := s :: !setups;
        setup_s := s)
      (setup_once w ops)
  in
  add_setup ();
  while !iterations < 3 || clock () +. (1.1 *. !iteration_s) < deadline do
    incr iterations;
    Option.iter
      (fun (st, _) ->
        timed := st :: !timed;
        iteration_s := st.host_s)
      (iterate w ops ~reference);
    let n = Float.to_int (Float.round (0.1 *. !iteration_s /. Float.max !setup_s 1e-3)) in
    for _ = 1 to max 1 n do
      add_setup ()
    done
  done;
  let timed = Array.of_list (List.rev !timed) in
  let setups = Array.of_list (List.rev !setups) in
  let lifetimes = float_of_int (3 * w.lifetimes) in
  let rates = Array.map (fun st -> lifetimes /. st.host_s) timed in
  let words = Array.map (fun st -> st.minor_words /. lifetimes) timed in
  Printf.printf "workload %s  seed %d  %d timed iterations of 3 strategies x %d lifetimes\n"
    w.name args.seed (Array.length timed) w.lifetimes;
  let metrics =
    if not args.trace then begin
      summary_line "lifetimes_per_s" "1/s" rates;
      summary_line "setup_s" "s" setups;
      summary_line "minor_words_per_lifetime" "words" words;
      Printf.printf "  %-26s %.6g MiB (largest of the three strategies, each in a fresh process)\n"
        "peak_heap_mb" peak;
      [
        ("lifetimes_per_s", "1/s", median rates);
        ("setup_s", "s", median setups);
        ("minor_words_per_lifetime", "words", median words);
        ("peak_heap_mb", "MiB", peak);
      ]
    end
    else begin
      let untraced_s = median (Array.map (fun st -> st.host_s) timed) in
      (* The traced iteration: spans and the runtime's event ring on. *)
      Span.enabled := true;
      Gc_pause.reset ();
      let traced =
        Gc_pause.draining (fun () -> Span.record "iteration" (fun () -> iterate w ops ~reference))
      in
      let pause_s = Gc_pause.seconds () in
      ignore (Span.record "setup" (fun () -> setup_once w ops) : float option);
      let driven =
        List.map
          (fun (name, f) -> (name, Span.record ("driver." ^ name) f))
          (drivers w.shape ~seed:args.seed ~declare:w.declare ~net)
      in
      Span.enabled := false;
      let counts, traced_s =
        match traced with
        | None -> ([], nan)
        | Some (st, rs) ->
            let ttlb i = w.ttlb rs.(i) in
            ( [
                ("engine.events_per_lifetime", sum rs w.events /. lifetimes);
                ("gc.minor_collections_per_lifetime",
                 float_of_int st.minor_collections /. lifetimes);
                ("gc.major_collections", float_of_int st.major_collections);
                ("gc.promoted_words_per_lifetime", st.promoted_words /. lifetimes);
                ("gc.pause_s", pause_s);
                ("gc.pause_share", ratio pause_s st.host_s);
                ("sim.ttlb_p50_s.cs", fst (ttlb 0));
                ("sim.ttlb_p50_s.ss", fst (ttlb 1));
                ("sim.ttlb_p50_s.pr", fst (ttlb 2));
                ("sim.ttlb_p99_s.cs", snd (ttlb 0));
                ("sim.ttlb_p99_s.ss", snd (ttlb 1));
                ("sim.ttlb_p99_s.pr", snd (ttlb 2));
              ]
              @ w.layer_counts rs,
              st.host_s )
      in
      let overhead = ratio traced_s untraced_s in
      let value name =
        if name = "trace.overhead" then overhead
        else
          match List.assoc_opt name driven with
          | Some v -> v
          | None -> Option.value ~default:0. (List.assoc_opt name counts)
      in
      let metrics = List.map (fun (name, u) -> (name, u, value name)) per_layer_units in
      Printf.printf "  trace.overhead %.4f: traced iteration %.4f s over untraced median %.4f s\n"
        overhead traced_s untraced_s;
      if !Gc_pause.lost > 0 then
        Printf.printf "  %d runtime events lost: gc.pause_s is a lower bound\n" !Gc_pause.lost;
      Printf.printf "  spans: calls, total s, self s\n";
      List.iter
        (fun (name, (calls, total, self)) ->
          Printf.printf "    %-34s %4d %10.4f %10.4f\n" name calls total self)
        (Span.summary ());
      Printf.printf "  per-layer metrics (a driver reading 0 is not on this workload's path):\n";
      List.iter (fun (name, u, v) -> Printf.printf "    %-38s %.6g %s\n" name v u) metrics;
      metrics
    end
  in
  List.iter (Printf.printf "  failed: %s\n") ops.why;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (ops.failed = 0) ops.attempted ops.failed
    (String.concat ", " (List.map json_metric metrics))

let () =
  let args = parse_args () in
  let (W w) = (List.assoc args.workload workloads) ~seed:args.seed in
  match args.peak_of with
  | Some label ->
      ignore (w.run ~cut:false (List.assoc label (Array.to_list strategies)));
      Printf.printf "%.17g\n" (top_heap_mib ())
  | None -> (
  match measure w args with
  | () -> ()
  | exception Self_test msg ->
      prerr_endline ("bench: self-test failed: " ^ msg);
      exit 1)
