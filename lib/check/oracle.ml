type violation = { oracle : string; at : Engine.Time.t; detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "[%a] %s: %s" Engine.Time.pp v.at v.oracle v.detail

type selection = {
  clock : bool;
  link : bool;
  hop : bool;
  incarnation : bool;
  cwnd : bool;
  delivery : bool;
  budget : bool;
  teardown : bool;
}

let all = {
  clock = true;
  link = true;
  hop = true;
  incarnation = true;
  cwnd = true;
  delivery = true;
  budget = true;
  teardown = true;
}

let none = {
  clock = false;
  link = false;
  hop = false;
  incarnation = false;
  cwnd = false;
  delivery = false;
  budget = false;
  teardown = false;
}

let oracle_names =
  [ "clock"; "link"; "hop"; "incarnation"; "cwnd"; "delivery"; "budget";
    "teardown" ]

let enable sel = function
  | "clock" -> Ok { sel with clock = true }
  | "link" -> Ok { sel with link = true }
  | "hop" -> Ok { sel with hop = true }
  | "incarnation" -> Ok { sel with incarnation = true }
  | "cwnd" -> Ok { sel with cwnd = true }
  | "delivery" -> Ok { sel with delivery = true }
  | "budget" -> Ok { sel with budget = true }
  | "teardown" -> Ok { sel with teardown = true }
  | name ->
      Error
        (Printf.sprintf "unknown oracle %S (expected all or one of: %s)" name
           (String.concat ", " oracle_names))

let selection_of_string s =
  match String.trim s with
  | "all" -> Ok all
  | s ->
      String.split_on_char ',' s
      |> List.fold_left
           (fun acc name ->
             match acc with
             | Error _ as e -> e
             | Ok sel -> enable sel (String.trim name))
           (Ok none)

let selection_to_string sel =
  if sel = all then "all"
  else
    [ ("clock", sel.clock); ("link", sel.link); ("hop", sel.hop);
      ("incarnation", sel.incarnation); ("cwnd", sel.cwnd);
      ("delivery", sel.delivery); ("budget", sel.budget);
      ("teardown", sel.teardown) ]
    |> List.filter_map (fun (n, on) -> if on then Some n else None)
    |> String.concat ","

(* One attachment = one (sim, links, transfer) triple under watch.  The
   recovery experiments attach once per circuit generation, all sharing
   one simulator. *)
type attachment = {
  links : Netsim.Link.t array;
  transfer : Backtap.Transfer.t;
  mutable last_delivered : int;
}

(* One budgeted relay under watch: its occupancy is bounded at every
   sweep, and every circuit its automaton refused or OOM-killed must
   leave no routing entry behind by end of run. *)
type relay_watch = {
  ctl : Tor_model.Relay_ctl.t;
  mutable dead : Tor_model.Circuit_id.t list;  (* refused or killed here *)
}

type t = {
  sel : selection;
  mutable violations : violation list;  (* newest first, capped *)
  mutable attachments : attachment list;
  mutable relays : relay_watch list;
  mutable sims : Engine.Sim.t list;  (* sims with an installed fire probe *)
}

let max_recorded = 32

let create ?(selection = all) () =
  { sel = selection; violations = []; attachments = [];
    relays = []; sims = [] }

let violations t = List.rev t.violations

let violate t ~oracle ~at detail =
  if List.length t.violations < max_recorded then
    t.violations <- { oracle; at; detail } :: t.violations

(* --- per-link conservation -------------------------------------- *)

let check_link t ~at link =
  let open Netsim.Link in
  let accepted = packets_accepted link in
  let accounted =
    packets_delivered link + packets_blackholed link + queue_drops link
    + fault_drops link + outage_drops link + queue_length link
    + (if busy link then 1 else 0)
    + packets_in_flight link
  in
  if accepted <> accounted then
    violate t ~oracle:"link" ~at
      (Format.asprintf
         "link %a: accepted %d <> accounted %d (delivered %d blackholed %d \
          queue-drop %d fault %d outage %d queued %d busy %b in-flight %d)"
         pp link accepted accounted (packets_delivered link)
         (packets_blackholed link) (queue_drops link) (fault_drops link)
         (outage_drops link) (queue_length link) (busy link)
         (packets_in_flight link))

(* --- transfer-level delivery ------------------------------------ *)

let check_delivery t ~at a =
  let d = Backtap.Transfer.delivered_bytes a.transfer in
  if d < a.last_delivered then
    violate t ~oracle:"delivery" ~at
      (Printf.sprintf "delivered_bytes went backwards: %d -> %d"
         a.last_delivered d)
  else a.last_delivered <- d

(* --- relay resource budgets -------------------------------------- *)

(* The byte budget is enforced synchronously inside the charge (the OOM
   responder runs before the charge returns), so between events — which
   is when sweeps run — a budgeted relay's occupancy never exceeds its
   cap.  Disabling enforcement ([Switchboard.unsafe_disable_budget])
   breaks exactly this law. *)
let check_budget t ~at w =
  let sb = Tor_model.Relay_ctl.switchboard w.ctl in
  let q = Tor_model.Switchboard.queued_bytes sb in
  if q < 0 then
    violate t ~oracle:"budget" ~at
      (Printf.sprintf "relay occupancy went negative: %d bytes" q);
  match (Tor_model.Switchboard.budget sb).Tor_model.Switchboard.max_queued_bytes
  with
  | Some cap when q > cap ->
      violate t ~oracle:"budget" ~at
        (Printf.sprintf "relay occupancy %d bytes exceeds budget %d" q cap)
  | Some _ | None -> ()

let sweep t ~at =
  if t.sel.link then
    List.iter (fun a -> Array.iter (check_link t ~at) a.links) t.attachments;
  if t.sel.delivery then List.iter (check_delivery t ~at) t.attachments;
  if t.sel.budget then List.iter (check_budget t ~at) t.relays

(* --- per-sender laws -------------------------------------------- *)

let attach_sender t sim ~pos sender =
  let open Backtap.Hop_sender in
  if t.sel.hop || t.sel.incarnation then
    set_probe sender
      (Some
         (fun ev ->
           let at = Engine.Sim.now sim in
           match ev with
           | Wire_departure { pkt_id; in_use; wire_floor; applied } ->
               if t.sel.incarnation && applied
                  && not (in_use && pkt_id >= wire_floor)
               then
                 violate t ~oracle:"incarnation" ~at
                   (Printf.sprintf
                      "hop %d applied a stale wire departure: pkt %d \
                       (in_use %b, wire_floor %d)"
                      pos pkt_id in_use wire_floor)
           | Feedback { hop_seq; next_hop_seq; known = _ } ->
               if t.sel.hop then begin
                 if hop_seq < 0 || hop_seq >= next_hop_seq then
                   violate t ~oracle:"hop" ~at
                     (Printf.sprintf
                        "hop %d: feedback for never-sent cell %d (next %d)"
                        pos hop_seq next_hop_seq);
                 (* Per-hop cell conservation, checked just before the
                    feedback is processed: every first-sent cell is
                    either still in flight or already fed back. *)
                 let sent = cells_sent sender
                 and fb = feedback_received sender
                 and infl = inflight sender in
                 if sent <> fb + infl then
                   violate t ~oracle:"hop" ~at
                     (Printf.sprintf
                        "hop %d: cell conservation broken: sent %d <> \
                         feedback %d + in-flight %d"
                        pos sent fb infl)
               end));
  if t.sel.cwnd then begin
    let c = controller sender in
    let params = Circuitstart.Controller.params c in
    let clamp v =
      Stdlib.min params.Circuitstart.Params.max_cwnd
        (Stdlib.max params.Circuitstart.Params.min_cwnd v)
    in
    let prev = ref (Circuitstart.Controller.cwnd c) in
    let seen_exits = ref (Circuitstart.Controller.ramp_up_exits c) in
    let seen_gen = ref (Circuitstart.Controller.plan_generation c) in
    Circuitstart.Controller.set_on_change c (fun ~now v ->
        let p = !prev in
        prev := v;
        let fail detail = violate t ~oracle:"cwnd" ~at:now detail in
        if v < params.Circuitstart.Params.min_cwnd
           || v > params.Circuitstart.Params.max_cwnd
        then
          fail
            (Printf.sprintf "hop %d: cwnd %d outside [%d, %d]" pos v
               params.Circuitstart.Params.min_cwnd
               params.Circuitstart.Params.max_cwnd);
        (match Circuitstart.Controller.latest_diff c with
        | Some d when Float.is_nan d ->
            fail (Printf.sprintf "hop %d: Vegas diff is NaN" pos)
        | Some _ | None -> ());
        let exits = Circuitstart.Controller.ramp_up_exits c in
        let is_exit = exits > !seen_exits in
        seen_exits := exits;
        (* [leave_ramp_up] runs the change hooks before flipping the
           phase and before [start_round] resets the round counters, so
           at an exit we still read Ramp_up and the exiting round's
           acked count. *)
        match
          (Circuitstart.Controller.phase c, Circuitstart.Controller.strategy c)
        with
        | Circuitstart.Controller.Ramp_up, Circuitstart.Controller.Circuit_start
          ->
            if is_exit then begin
              match params.Circuitstart.Params.compensation with
              | Circuitstart.Params.Acked_count ->
                  let acked = Circuitstart.Controller.acked_in_round c in
                  if v <> clamp acked then
                    fail
                      (Printf.sprintf
                         "hop %d: overshoot exit cwnd %d <> acked-in-round %d"
                         pos v acked)
              | Circuitstart.Params.Rate_based -> ()
            end
            else if v <> clamp (2 * p) then
              fail
                (Printf.sprintf
                   "hop %d: ramp-up change %d -> %d is not a doubling" pos p v)
        | Circuitstart.Controller.Ramp_up, Circuitstart.Controller.Slow_start ->
            if is_exit then begin
              if v <> clamp (p / 2) then
                fail
                  (Printf.sprintf "hop %d: slow-start exit %d -> %d not halved"
                     pos p v)
            end
            else if v <> clamp (p + 1) then
              fail
                (Printf.sprintf
                   "hop %d: slow-start ramp change %d -> %d is not +1" pos p v)
        | Circuitstart.Controller.Ramp_up, Circuitstart.Controller.Fixed _ ->
            fail (Printf.sprintf "hop %d: Fixed-window cwnd changed to %d" pos v)
        | _, Circuitstart.Controller.Predictive ->
            if Circuitstart.Controller.fallen_back c then begin
              (* Fallback safety: once the model was unidentifiable the
                 controller must behave as plain Vegas avoidance — never
                 ramping again, never shrinking faster than one cell. *)
              (match Circuitstart.Controller.phase c with
              | Circuitstart.Controller.Ramp_up ->
                  fail
                    (Printf.sprintf
                       "hop %d: predictive fell back but cwnd changed in \
                        ramp-up (%d -> %d)"
                       pos p v)
              | Circuitstart.Controller.Avoidance -> ());
              if v < p - 1 then
                fail
                  (Printf.sprintf
                     "hop %d: fallback avoidance shrank by more than one: %d \
                      -> %d"
                     pos p v)
            end
            else begin
              (* Plan-bounds law: every predictive window change is the
                 head of the current plan, and plan-commit monotonicity:
                 each commit carries a plan generation strictly newer
                 than the last observed one (replan-before-commit, once
                 per round). *)
              let plan = Circuitstart.Controller.planned_trajectory c in
              let g = Circuitstart.Controller.plan_generation c in
              if Array.length plan = 0 then
                fail (Printf.sprintf "hop %d: predictive change with no plan" pos)
              else if v <> plan.(0) then
                fail
                  (Printf.sprintf
                     "hop %d: predictive commit %d -> %d is not the plan's \
                      first step (%d)"
                     pos p v plan.(0));
              if g <= !seen_gen then
                fail
                  (Printf.sprintf
                     "hop %d: predictive commit without a fresh plan \
                      (generation %d, last seen %d)"
                     pos g !seen_gen);
              seen_gen := g
            end
        | Circuitstart.Controller.Avoidance, _ ->
            if v < p - 1 then
              fail
                (Printf.sprintf
                   "hop %d: avoidance shrank by more than one: %d -> %d" pos p v))
  end

(* --- attachment -------------------------------------------------- *)

let ensure_fire_probe t sim =
  if not (List.memq sim t.sims) then begin
    t.sims <- sim :: t.sims;
    let last = ref (Engine.Sim.now sim) in
    let events = ref 0 in
    (* The fire probe observes every event with the clock already
       advanced.  A timer-wheel bug that fires an entry before its
       deadline shows up here as a clock regression: the queue reports
       each event's own scheduled time, so a premature pop is followed
       by an earlier-stamped event. *)
    Engine.Sim.set_fire_probe sim
      (Some
         (fun now ->
           if t.sel.clock && Engine.Time.(now < !last) then
             violate t ~oracle:"clock" ~at:now
               (Format.asprintf "clock went backwards: %a -> %a" Engine.Time.pp
                  !last Engine.Time.pp now);
           last := now;
           incr events;
           (* Amortized sweep of the instantaneous conservation laws. *)
           if !events land 255 = 0 then sweep t ~at:now))
  end

let attach t sim links transfer =
  let a = { links; transfer;
            last_delivered = Backtap.Transfer.delivered_bytes transfer } in
  t.attachments <- a :: t.attachments;
  List.iteri (fun pos s -> attach_sender t sim ~pos s)
    (Backtap.Transfer.senders transfer);
  ensure_fire_probe t sim

let attach_relays t sim ctls =
  let watches =
    List.map
      (fun ctl ->
        let w = { ctl; dead = [] } in
        if t.sel.teardown then
          Tor_model.Relay_ctl.set_probe ctl
            (Some
               (function
                 | Tor_model.Relay_ctl.Refused_build c
                 | Tor_model.Relay_ctl.Oom_killed c ->
                     w.dead <- c :: w.dead));
        w)
      ctls
  in
  t.relays <- t.relays @ watches;
  ensure_fire_probe t sim

let finish t =
  let at =
    match t.sims with [] -> Engine.Time.zero | sim :: _ -> Engine.Sim.now sim
  in
  sweep t ~at;
  (* End-of-run hop conservation, skipping aborted senders (abort drops
     in-flight state by design). *)
  if t.sel.hop then
    List.iter
      (fun a ->
        List.iteri
          (fun pos sender ->
            let open Backtap.Hop_sender in
            if not (aborted sender) then begin
              let sent = cells_sent sender
              and fb = feedback_received sender
              and infl = inflight sender in
              if sent <> fb + infl then
                violate t ~oracle:"hop" ~at
                  (Printf.sprintf
                     "hop %d at end of run: sent %d <> feedback %d + \
                      in-flight %d"
                     pos sent fb infl)
            end)
          (Backtap.Transfer.senders a.transfer))
      t.attachments;
  (* Every refusal and every OOM kill must have left zero routing state
     and zero occupancy behind at the relay that performed it. *)
  if t.sel.teardown then
    List.iter
      (fun w ->
        let sb = Tor_model.Relay_ctl.switchboard w.ctl in
        List.iter
          (fun c ->
            (match Tor_model.Relay_ctl.route w.ctl c with
            | Some _ ->
                violate t ~oracle:"teardown" ~at
                  (Format.asprintf
                     "refused/oom-killed circuit %a still has a routing entry"
                     Tor_model.Circuit_id.pp c)
            | None -> ());
            let q = Tor_model.Switchboard.circuit_queued_bytes sb c in
            if q <> 0 then
              violate t ~oracle:"teardown" ~at
                (Format.asprintf
                   "refused/oom-killed circuit %a still holds %d queued bytes"
                   Tor_model.Circuit_id.pp c q))
          (List.sort_uniq compare w.dead))
      t.relays;
  if t.sel.budget then List.iter (check_budget t ~at) t.relays;
  (* Detach the probes so the sim/transfer can outlive the oracle. *)
  List.iter (fun sim -> Engine.Sim.set_fire_probe sim None) t.sims;
  List.iter
    (fun a ->
      List.iter
        (fun s -> Backtap.Hop_sender.set_probe s None)
        (Backtap.Transfer.senders a.transfer))
    t.attachments;
  List.iter (fun w -> Tor_model.Relay_ctl.set_probe w.ctl None) t.relays
