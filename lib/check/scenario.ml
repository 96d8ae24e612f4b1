type kind = Faults | Recovery | Overload | Network | Churn
type strategy = Cs | Ss | Pr

type t = {
  kind : kind;
  seed : int;
  relays : int;
  position : int;
  bytes : int;
  loss_ppm : int;
  burst : bool;
  outage_ms : (int * int) option;
  crash_ms : int option;
  queue_cells : int;
  strategy : strategy;
  bottleneck_kbps : int;
  fast_kbps : int;
  endpoint_kbps : int;
  max_rebuilds : int;
  (* Overload-only knobs; inert defaults (1/0/0/0) for other kinds. *)
  sessions : int;
  oload_circuits : int;  (* per-relay circuit budget; 0 = unlimited *)
  oload_kib : int;  (* per-relay byte budget in KiB; 0 = unlimited *)
  arrival_ms : int;  (* mean inter-arrival gap of the crowd *)
  (* Network-only knob; inert default 0 for other kinds.  Network
     scenarios reuse [sessions] as the slot count, [bytes] as the mouse
     transfer size, [arrival_ms] as the mean think time and the
     overload budgets as the per-relay admission budget. *)
  lifet : int;  (* circuit lifetimes to complete; 0 = experiment default *)
  (* Churn-only knobs; inert 0 defaults for other kinds.  Hazards are
     stored in parts-per-million per second so the record stays all-int
     and the replay line stays exact. *)
  leave_pm : int;  (* per-relay per-second leave hazard, ppm *)
  join_pm : int;  (* per-relay per-second rejoin hazard, ppm *)
  crashpct : int;  (* percent of departures that crash (vs drain) *)
  grace_ms : int;  (* drain grace before survivors are killed *)
  epoch_ms : int;  (* directory snapshot refresh period *)
  spares : int;  (* relays that start down and join under join_pm *)
  (* Network/churn: the shard count (1, 2 or 4; 1 for other kinds).
     The result must not depend on it — audited by the harness's
     shards=1-vs-4 differential. *)
  shards : int;
}

let recovery_hops = 3

(* --- replay-line serialization ----------------------------------- *)

let kind_code = function
  | Faults -> "f"
  | Recovery -> "r"
  | Overload -> "o"
  | Network -> "n"
  | Churn -> "c"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "f" | "faults" -> Some Faults
  | "r" | "recovery" -> Some Recovery
  | "o" | "overload" -> Some Overload
  | "n" | "network" -> Some Network
  | "c" | "churn" -> Some Churn
  | _ -> None

let strategy_code = function Cs -> "cs" | Ss -> "ss" | Pr -> "pr"

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "cs" | "circuitstart" -> Some Cs
  | "ss" | "slowstart" -> Some Ss
  | "pr" | "predictive" -> Some Pr
  | _ -> None

let to_string t =
  let outage_down, outage_up =
    match t.outage_ms with Some (d, u) -> (d, u) | None -> (-1, -1)
  in
  Printf.sprintf
    "k=%s seed=%d relays=%d pos=%d bytes=%d loss=%d burst=%d odown=%d oup=%d \
     crash=%d queue=%d strat=%s bn=%d fast=%d ep=%d rebuilds=%d sess=%d \
     ocirc=%d okib=%d arr=%d lifet=%d lpm=%d jpm=%d crashpct=%d grace=%d \
     epochms=%d spares=%d shards=%d"
    (kind_code t.kind) t.seed t.relays t.position t.bytes t.loss_ppm
    (if t.burst then 1 else 0)
    outage_down outage_up
    (match t.crash_ms with Some c -> c | None -> -1)
    t.queue_cells (strategy_code t.strategy) t.bottleneck_kbps t.fast_kbps
    t.endpoint_kbps t.max_rebuilds t.sessions t.oload_circuits t.oload_kib
    t.arrival_ms t.lifet t.leave_pm t.join_pm t.crashpct t.grace_ms t.epoch_ms
    t.spares t.shards

let of_string line =
  let ( let* ) = Result.bind in
  let fields =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some i ->
               Some
                 ( String.sub kv 0 i,
                   String.sub kv (i + 1) (String.length kv - i - 1) )
           | None -> None)
  in
  let str key =
    match List.assoc_opt key fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "scenario line: missing field %S" key)
  in
  let int key =
    let* v = str key in
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "scenario line: field %S is not an int" key)
  in
  (* Fields added after the first release: absent in old reproducer
     lines, which keep replaying with the inert default. *)
  let int_default key default =
    match List.assoc_opt key fields with
    | None -> Ok default
    | Some _ -> int key
  in
  let* k = str "k" in
  let* kind =
    match k with
    | "f" -> Ok Faults
    | "r" -> Ok Recovery
    | "o" -> Ok Overload
    | "n" -> Ok Network
    | "c" -> Ok Churn
    | other -> Error (Printf.sprintf "scenario line: unknown kind %S" other)
  in
  let* seed = int "seed" in
  let* relays = int "relays" in
  let* position = int "pos" in
  let* bytes = int "bytes" in
  let* loss_ppm = int "loss" in
  let* burst = int "burst" in
  let* odown = int "odown" in
  let* oup = int "oup" in
  let* crash = int "crash" in
  let* queue_cells = int "queue" in
  let* strat = str "strat" in
  let* strategy =
    match strat with
    | "cs" -> Ok Cs
    | "ss" -> Ok Ss
    | "pr" -> Ok Pr
    | other -> Error (Printf.sprintf "scenario line: unknown strategy %S" other)
  in
  let* bottleneck_kbps = int "bn" in
  let* fast_kbps = int "fast" in
  let* endpoint_kbps = int "ep" in
  let* max_rebuilds = int "rebuilds" in
  let* sessions = int_default "sess" 1 in
  let* oload_circuits = int_default "ocirc" 0 in
  let* oload_kib = int_default "okib" 0 in
  let* arrival_ms = int_default "arr" 0 in
  let* lifet = int_default "lifet" 0 in
  let* leave_pm = int_default "lpm" 0 in
  let* join_pm = int_default "jpm" 0 in
  let* crashpct = int_default "crashpct" 0 in
  let* grace_ms = int_default "grace" 0 in
  let* epoch_ms = int_default "epochms" 0 in
  let* spares = int_default "spares" 0 in
  let* shards = int_default "shards" 1 in
  let* () =
    if shards < 1 then
      Error (Printf.sprintf "scenario line: shards must be >= 1, got %d" shards)
    else Ok ()
  in
  Ok
    {
      kind;
      seed;
      relays;
      position;
      bytes;
      loss_ppm;
      burst = burst <> 0;
      outage_ms = (if odown < 0 then None else Some (odown, oup));
      crash_ms = (if crash < 0 then None else Some crash);
      queue_cells;
      strategy;
      bottleneck_kbps;
      fast_kbps;
      endpoint_kbps;
      max_rebuilds;
      sessions;
      oload_circuits;
      oload_kib;
      arrival_ms;
      lifet;
      leave_pm;
      join_pm;
      crashpct;
      grace_ms;
      epoch_ms;
      spares;
      shards;
    }

let equal a b = a = b

(* --- generation --------------------------------------------------- *)

(* Relay bandwidths come from the same log-normal population the
   experiments use ({!Workload.Relay_gen}), keyed by the scenario seed:
   the slowest draw becomes the bottleneck rate, the fastest the rest
   of the star.  Storing the derived rates in the record keeps a replay
   line self-contained. *)
let rates_of_seed ~seed ~relays =
  let specs =
    Workload.Relay_gen.generate
      (Engine.Rng.create (seed lxor 0x5ca1ab1e))
      Workload.Relay_gen.default_config ~n:(Stdlib.max 2 relays)
  in
  let kbps spec =
    Engine.Units.Rate.to_bps spec.Workload.Relay_gen.bandwidth / 1000
  in
  let rates = List.map kbps specs in
  let bn = List.fold_left Stdlib.min (List.hd rates) rates in
  let fast = List.fold_left Stdlib.max (List.hd rates) rates in
  (bn, Stdlib.max fast (2 * bn))

let gen_kind (only : kind option) : t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* kind =
    match only with
    | Some k -> pure k
    | None ->
        frequencyl
          [ (3, Faults); (1, Recovery); (1, Overload); (2, Network); (2, Churn) ]
  in
  let* seed = int_range 1 0x3FFFFFFF in
  let* relays =
    match kind with
    | Faults -> int_range 2 5
    | Recovery -> int_range (recovery_hops + 1) 7
    | Overload -> int_range (recovery_hops + 1) 6
    | Network -> int_range 6 14
    (* Churn worlds need headroom over the experiment's min-up floors
       (4 relays / 2 exits) or every departure draw is suppressed. *)
    | Churn -> int_range 7 14
  in
  let* position =
    match kind with
    | Faults -> int_range 1 relays
    | Recovery | Overload -> int_range 1 recovery_hops
    | Network | Churn -> pure 1
  in
  let* bytes =
    map (fun k -> k * 1024)
      (match kind with
      | Overload -> int_range 8 32
      | Network | Churn -> int_range 4 16
      | Faults | Recovery -> int_range 8 64)
  in
  (* Overload scenarios stress the budgets, not the links: no loss and
     no outage — every failure they see is admission control, the OOM
     responder or (in a third of them) a relay crash, so the crash and
     budget axes of the session world are explored together.  Network
     and churn scenarios are round-level:
     links, queues and crashes do not exist at that granularity, only
     the admission budgets, the pooled circuit state and (for churn)
     the departure schedule do. *)
  let* loss_ppm =
    match kind with
    | Overload | Network | Churn -> pure 0
    | Faults | Recovery -> frequency [ (2, pure 0); (3, int_range 1_000 30_000) ]
  in
  let* burst = bool in
  let* outage_ms =
    match kind with
    | Overload | Network | Churn -> pure None
    | Faults | Recovery ->
        frequency
          [
            (7, pure None);
            (3, map (fun (d, len) -> Some (d, d + len))
                  (pair (int_range 50 400) (int_range 50 400)));
          ]
  in
  let* crash_ms =
    match kind with
    | Faults -> frequency [ (8, pure None); (2, map Option.some (int_range 100 800)) ]
    | Recovery -> map Option.some (int_range 50 500)
    | Overload -> frequency [ (2, pure None); (1, map Option.some (int_range 50 500)) ]
    | Network | Churn -> pure None
  in
  let* sessions =
    match kind with
    | Overload -> int_range 3 6
    | Network | Churn -> int_range 4 12
    | _ -> pure 1
  in
  let* oload_circuits =
    match kind with
    | Overload -> frequency [ (1, pure 0); (2, int_range 2 5) ]
    | Network | Churn -> frequency [ (2, pure 0); (1, int_range 3 6) ]
    | Faults | Recovery -> pure 0
  in
  let* oload_kib =
    match kind with
    | Overload -> frequency [ (1, pure 0); (3, int_range 8 32) ]
    | Network | Churn -> frequency [ (2, pure 0); (1, int_range 32 128) ]
    | Faults | Recovery -> pure 0
  in
  let* arrival_ms =
    match kind with
    | Overload -> int_range 10 200
    | Network | Churn -> int_range 5 50
    | Faults | Recovery -> pure 0
  in
  let* lifet =
    match kind with
    | Network -> int_range 20 80
    | Churn -> int_range 20 60
    | _ -> pure 0
  in
  let* queue_cells =
    match kind with
    | Network | Churn -> pure 0
    | _ -> frequency [ (1, pure 0); (2, int_range 8 64) ]
  in
  (* Churn hazards, stored as ppm/s.  Leave rates are deliberately
     brutal compared to real consensus churn — a scenario lasts seconds,
     so the hazard has to land several departures inside the window for
     the oracles to have anything to audit. *)
  let* leave_pm =
    match kind with Churn -> int_range 50_000 300_000 | _ -> pure 0
  in
  let* join_pm =
    match kind with Churn -> int_range 100_000 500_000 | _ -> pure 0
  in
  let* crashpct = match kind with Churn -> int_range 0 100 | _ -> pure 0 in
  let* grace_ms = match kind with Churn -> int_range 200 2_000 | _ -> pure 0 in
  let* epoch_ms = match kind with Churn -> int_range 500 5_000 | _ -> pure 0 in
  let* spares = match kind with Churn -> int_range 0 3 | _ -> pure 0 in
  (* Keep the total weight at 5: the draw then consumes the same
     randomness, so every other field of a given (seed, index) is
     unchanged by the split between the shard counts. *)
  let* shards =
    match kind with
    | Network | Churn -> frequencyl [ (3, 1); (1, 2); (1, 4) ]
    | _ -> pure 1
  in
  (* A third of the population gets a crawling client access link.
     Slow clients are the norm in deployed anonymity networks, and they
     are the only place the sender's own access queue can congest — the
     regime that exercises the pooled-pending recycling laws. *)
  let* endpoint_kbps =
    frequency [ (2, pure 100_000); (1, int_range 8 48) ]
  in
  let+ strategy = frequencyl [ (3, Cs); (1, Ss); (2, Pr) ] in
  let bottleneck_kbps, fast_kbps = rates_of_seed ~seed ~relays in
  let max_rebuilds = 3 in
  {
    kind;
    seed;
    relays;
    position;
    bytes;
    loss_ppm;
    burst;
    outage_ms;
    crash_ms;
    queue_cells;
    strategy;
    bottleneck_kbps;
    fast_kbps;
    endpoint_kbps;
    max_rebuilds;
    sessions;
    oload_circuits;
    oload_kib;
    arrival_ms;
    lifet;
    leave_pm;
    join_pm;
    crashpct;
    grace_ms;
    epoch_ms;
    spares;
    shards;
  }

let gen = gen_kind None

let generate ?only ?strat ~seed ~index () =
  let rand = Random.State.make [| 0x5eed; seed; index |] in
  let sc = QCheck2.Gen.generate1 ~rand (gen_kind only) in
  (* Pinning the strategy overrides the sampled one after the fact, so
     a pinned sweep visits the same worlds as the unpinned one — only
     the controller under test changes. *)
  match strat with None -> sc | Some s -> { sc with strategy = s }

(* --- shrinking ---------------------------------------------------- *)

(* Greedy structural shrinks, simplest first: each candidate removes
   one source of complexity while keeping the record valid.  The
   harness re-runs candidates and walks down while the failure
   persists. *)
let shrink_candidates t =
  let cands = ref [] in
  let add c = if c <> t then cands := c :: !cands in
  if t.bytes > 8 * 1024 then add { t with bytes = Stdlib.max (8 * 1024) (t.bytes / 2) };
  if t.loss_ppm > 0 then add { t with loss_ppm = 0; burst = false };
  if t.burst then add { t with burst = false };
  if t.outage_ms <> None then add { t with outage_ms = None };
  (match (t.kind, t.crash_ms) with
  | (Faults | Overload), Some _ -> add { t with crash_ms = None }
  | _ -> ());
  if t.queue_cells <> 0 then add { t with queue_cells = 0 };
  (match t.kind with
  | Faults ->
      if t.relays > 2 then
        add
          {
            t with
            relays = t.relays - 1;
            position = Stdlib.min t.position (t.relays - 1);
          }
  | Recovery | Overload ->
      if t.relays > recovery_hops + 1 then add { t with relays = t.relays - 1 }
  | Network -> if t.relays > 4 then add { t with relays = t.relays - 1 }
  | Churn ->
      (* Keep headroom over the min-up floors, or the shrunk scenario
         stops churning and the failure evaporates for the wrong
         reason. *)
      if t.relays > 7 then add { t with relays = t.relays - 1 });
  if t.sessions > 1 then add { t with sessions = t.sessions - 1 };
  if t.kind = Overload && t.arrival_ms > 10 then
    add { t with arrival_ms = Stdlib.max 10 (t.arrival_ms / 2) };
  if (t.kind = Network || t.kind = Churn) && t.arrival_ms > 5 then
    add { t with arrival_ms = Stdlib.max 5 (t.arrival_ms / 2) };
  if t.lifet > 8 then add { t with lifet = Stdlib.max 8 (t.lifet / 2) };
  if t.oload_circuits > 0 then add { t with oload_circuits = 0 };
  if t.oload_kib > 0 then add { t with oload_kib = 0 };
  if t.spares > 0 then add { t with spares = 0 };
  if t.leave_pm > 50_000 then
    add { t with leave_pm = Stdlib.max 50_000 (t.leave_pm / 2) };
  if t.join_pm > 100_000 then
    add { t with join_pm = Stdlib.max 100_000 (t.join_pm / 2) };
  (* Collapse a mixed crash/drain schedule to a pure one — either pure
     drains or pure crashes is simpler to reason about than a blend. *)
  if t.crashpct > 0 && t.crashpct < 100 then begin
    add { t with crashpct = 100 };
    add { t with crashpct = 0 }
  end;
  if t.grace_ms > 200 then
    add { t with grace_ms = Stdlib.max 200 (t.grace_ms / 2) };
  if t.epoch_ms > 500 then
    add { t with epoch_ms = Stdlib.max 500 (t.epoch_ms / 2) };
  if t.position > 1 then add { t with position = 1 };
  if t.strategy = Ss then add { t with strategy = Cs };
  if t.strategy = Pr then add { t with strategy = Cs };
  if t.shards > 1 then add { t with shards = 1 };
  List.rev !cands

(* --- experiment configs ------------------------------------------ *)

let loss_model t =
  if t.loss_ppm <= 0 then None
  else if t.burst then
    Some
      (Netsim.Faults.Gilbert_elliott
         {
           p_good_to_bad = float_of_int t.loss_ppm /. 100_000.;
           p_bad_to_good = 0.3;
           loss_good = 0.;
           loss_bad = 0.5;
         })
  else Some (Netsim.Faults.Bernoulli (float_of_int t.loss_ppm /. 1_000_000.))

let queue t =
  if t.queue_cells <= 0 then Netsim.Nqueue.unbounded
  else Netsim.Nqueue.packets t.queue_cells

let controller_strategy t =
  match t.strategy with
  | Cs -> Circuitstart.Controller.Circuit_start
  | Ss -> Circuitstart.Controller.Slow_start
  | Pr -> Circuitstart.Controller.Predictive

let fault_config t =
  if t.kind <> Faults then invalid_arg "Scenario.fault_config: not a fault scenario";
  {
    Workload.Fault_experiment.default_config with
    relay_count = t.relays;
    bottleneck_distance = t.position;
    bottleneck_rate = Engine.Units.Rate.bps (t.bottleneck_kbps * 1000);
    fast_rate = Engine.Units.Rate.bps (t.fast_kbps * 1000);
    endpoint_rate = Engine.Units.Rate.bps (t.endpoint_kbps * 1000);
    transfer_bytes = t.bytes;
    strategy = controller_strategy t;
    link_queue = queue t;
    loss = loss_model t;
    outage =
      Option.map
        (fun (d, u) -> (Engine.Time.ms d, Engine.Time.ms u))
        t.outage_ms;
    crash_at = Option.map Engine.Time.ms t.crash_ms;
  }

let recovery_config t =
  if t.kind <> Recovery then
    invalid_arg "Scenario.recovery_config: not a recovery scenario";
  {
    Workload.Overload_experiment.recovery_config with
    relay_count = t.relays;
    hops = recovery_hops;
    endpoint_rate = Engine.Units.Rate.bps (t.endpoint_kbps * 1000);
    transfer_bytes = t.bytes;
    strategy = controller_strategy t;
    link_queue = queue t;
    crash_at = Option.map Engine.Time.ms t.crash_ms;
    crash_position = t.position;
    max_rebuilds = t.max_rebuilds;
  }

let overload_config t =
  if t.kind <> Overload then
    invalid_arg "Scenario.overload_config: not an overload scenario";
  {
    Workload.Overload_experiment.default_config with
    relay_count = t.relays;
    hops = recovery_hops;
    endpoint_rate = Engine.Units.Rate.bps (t.endpoint_kbps * 1000);
    sessions = t.sessions;
    mean_interarrival = Engine.Time.ms (Stdlib.max 1 t.arrival_ms);
    transfer_bytes = t.bytes;
    strategy = controller_strategy t;
    link_queue = queue t;
    max_circuits = (if t.oload_circuits <= 0 then None else Some t.oload_circuits);
    max_queued_bytes =
      (if t.oload_kib <= 0 then None else Some (t.oload_kib * 1024));
    crash_at = Option.map Engine.Time.ms t.crash_ms;
    crash_position = t.position;
    max_rebuilds = t.max_rebuilds;
  }

(* Shared by network and churn scenarios: the same round-level
   experiment, the latter with the churn schedule switched on. *)
let base_network_config t =
  {
    Workload.Network_experiment.default_config with
    relays = t.relays;
    slots = t.sessions;
    target_lifetimes = t.lifet;
    (* Safety horizon: a pathological budget cannot stall the run
       forever, it just ends early with abandoned circuits (which is a
       valid, still-audited outcome). *)
    duration = Engine.Time.s 3_600;
    budget =
      {
        Tor_model.Switchboard.max_circuits =
          (if t.oload_circuits <= 0 then None else Some t.oload_circuits);
        max_queued_bytes =
          (if t.oload_kib <= 0 then None else Some (t.oload_kib * 1024));
      };
    mean_think = Engine.Time.ms (Stdlib.max 1 t.arrival_ms);
    elephant_fraction = 0.1;
    elephant_cells = 256;
    mice_cells = Stdlib.max 4 (t.bytes / 512);
    strategy = controller_strategy t;
    sketch_bins = 256;
    sketch_max = Engine.Time.s 120;
    shards = t.shards;
  }

let network_config t =
  if t.kind <> Network then
    invalid_arg "Scenario.network_config: not a network scenario";
  base_network_config t

let churn_config t =
  if t.kind <> Churn then
    invalid_arg "Scenario.churn_config: not a churn scenario";
  {
    (base_network_config t) with
    Workload.Network_experiment.leave_hazard =
      float_of_int t.leave_pm /. 1_000_000.;
    join_hazard = float_of_int t.join_pm /. 1_000_000.;
    crash_fraction = float_of_int t.crashpct /. 100.;
    drain_grace = Engine.Time.ms (Stdlib.max 1 t.grace_ms);
    epoch_period = Engine.Time.ms (Stdlib.max 100 t.epoch_ms);
    (* Ticks finer than the scenario's few-second horizon, so the
       hazard gets enough trials to actually land departures. *)
    churn_tick = Engine.Time.ms 100;
    spare_relays = t.spares;
  }
