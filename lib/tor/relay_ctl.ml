type entry = { prev : Netsim.Node_id.t; next : Netsim.Node_id.t option }

type probe_event = Refused_build of Circuit_id.t | Oom_killed of Circuit_id.t

type t = {
  sb : Switchboard.t;
  table : (int, entry) Hashtbl.t;
  mutable destroyed : int;
  mutable crashes : int;
  mutable admitted : int;
  mutable refusals : int;
  mutable oom_kills : int;
  mutable overload_enters : int;
  mutable overloaded : bool;  (* byte-overloaded or circuit table full *)
  mutable draining : bool;
  mutable drain_refusals : int;
  mutable drain_kills : int;
  mutable trace : (Engine.Trace.t * string) option;
  mutable probe : (probe_event -> unit) option;
}

let key = Circuit_id.to_int

let record t kind detail =
  match t.trace with
  | Some (registry, subject) ->
      Engine.Trace.record_event registry kind ~subject ~detail
        (Engine.Sim.now (Netsim.Network.sim (Switchboard.network t.sb)))
  | None -> ()

let notify t ev = match t.probe with Some f -> f ev | None -> ()

let table_full t =
  match (Switchboard.budget t.sb).Switchboard.max_circuits with
  | Some cap -> Hashtbl.length t.table >= cap
  | None -> false

(* Re-evaluate the combined overload state (byte occupancy over budget,
   or routing table at capacity) and trace the transition.  Called on
   every table change and on byte-overload flips. *)
let refresh_overload t =
  let over = Switchboard.byte_overloaded t.sb || table_full t in
  if over <> t.overloaded then begin
    t.overloaded <- over;
    if over then begin
      t.overload_enters <- t.overload_enters + 1;
      record t Engine.Trace.Overload_enter
        (Printf.sprintf "circuits=%d queued_bytes=%d"
           (Hashtbl.length t.table)
           (Switchboard.queued_bytes t.sb))
    end
    else record t Engine.Trace.Overload_exit ""
  end

(* Admission control for an incoming CREATE: refuse when the routing
   table or the byte occupancy is at capacity.  A re-CREATE of a
   circuit we already route is always admitted (idempotent).  With the
   budget hook disabled (harness fault injection) everything is
   admitted, re-creating the unprotected relay the oracles watch. *)
let admits t c =
  Hashtbl.mem t.table (key c)
  || !Switchboard.unsafe_disable_budget
  || Switchboard.within_budget (Switchboard.budget t.sb)
       ~circuits:(Hashtbl.length t.table)
       ~queued_bytes:(Switchboard.queued_bytes t.sb)

(* Tor's [circuits_handle_oom] analog: kill heaviest circuits until the
   node is back under its byte budget.  Each kill aborts the local
   data-plane sender (synchronously crediting its bytes back), removes
   the routing entry and tells both neighbours with DESTROY — the
   victim's client rebuilds elsewhere. *)
let handle_overflow t =
  let progress = ref true in
  while
    Switchboard.byte_overloaded t.sb
    && (not !Switchboard.unsafe_disable_budget)
    && !progress
  do
    match Switchboard.heaviest_circuit t.sb with
    | None -> progress := false
    | Some c ->
        t.oom_kills <- t.oom_kills + 1;
        record t Engine.Trace.Oom_kill
          (Printf.sprintf "circuit=%d bytes=%d" (key c)
             (Switchboard.circuit_queued_bytes t.sb c));
        notify t (Oom_killed c);
        Switchboard.kill_data t.sb c;
        (match Hashtbl.find_opt t.table (key c) with
        | Some { prev; next } ->
            Hashtbl.remove t.table (key c);
            List.iter
              (fun dst ->
                Switchboard.send_cell t.sb ~dst (Cell.make c Cell.Destroy))
              (prev :: Option.to_list next)
        | None -> ());
        Switchboard.drop_circuit_occupancy t.sb c;
        refresh_overload t
  done

let handle t ~from (cell : Cell.t) =
  let c = cell.circuit in
  match cell.command with
  | Cell.Create ->
      if t.draining && not (Hashtbl.mem t.table (key c)) then begin
        (* Draining: no new circuits, but existing ones keep forwarding
           until the drain deadline.  Same REFUSED path as admission
           control, distinct reason so clients can tell them apart. *)
        t.drain_refusals <- t.drain_refusals + 1;
        record t Engine.Trace.Refused
          (Printf.sprintf "circuit=%d draining" (key c));
        notify t (Refused_build c);
        Switchboard.send_cell t.sb ~dst:from
          (Cell.make c (Cell.Refused { reason = Cell.Draining }))
      end
      else if admits t c then begin
        t.admitted <- t.admitted + 1;
        Hashtbl.replace t.table (key c) { prev = from; next = None };
        refresh_overload t;
        Switchboard.send_cell t.sb ~dst:from (Cell.make c Cell.Created)
      end
      else begin
        t.refusals <- t.refusals + 1;
        record t Engine.Trace.Refused
          (Printf.sprintf "circuit=%d circuits=%d queued_bytes=%d" (key c)
             (Hashtbl.length t.table)
             (Switchboard.queued_bytes t.sb));
        notify t (Refused_build c);
        Switchboard.send_cell t.sb ~dst:from
          (Cell.make c (Cell.Refused { reason = Cell.Busy }))
      end
  | Cell.Extend { next } -> (
      match Hashtbl.find_opt t.table (key c) with
      | None -> () (* EXTEND for an unknown circuit: drop. *)
      | Some entry -> (
          match entry.next with
          | Some succ ->
              (* Not the end of the circuit: pass the request along. *)
              Switchboard.send_cell t.sb ~dst:succ cell
          | None ->
              Hashtbl.replace t.table (key c) { entry with next = Some next };
              Switchboard.send_cell t.sb ~dst:next (Cell.make c Cell.Create)))
  | Cell.Created -> (
      match Hashtbl.find_opt t.table (key c) with
      | Some { prev; next = Some succ } when Netsim.Node_id.equal succ from ->
          Switchboard.send_cell t.sb ~dst:prev (Cell.make c Cell.Extended)
      | Some _ | None -> ())
  | Cell.Extended -> (
      match Hashtbl.find_opt t.table (key c) with
      | Some { prev; next = Some succ } when Netsim.Node_id.equal succ from ->
          Switchboard.send_cell t.sb ~dst:prev cell
      | Some _ | None -> ())
  | Cell.Refused _ | Cell.Gone -> (
      (* Our extension target refused the circuit (or has departed the
         network): it never became part of it, so roll the routing
         entry back to end-of-circuit and pass the answer towards the
         client. *)
      match Hashtbl.find_opt t.table (key c) with
      | Some ({ prev; next = Some succ } as entry)
        when Netsim.Node_id.equal succ from ->
          Hashtbl.replace t.table (key c) { entry with next = None };
          Switchboard.send_cell t.sb ~dst:prev cell
      | Some _ | None -> ())
  | Cell.Destroy -> (
      t.destroyed <- t.destroyed + 1;
      match Hashtbl.find_opt t.table (key c) with
      | None -> ()
      | Some { prev; next } ->
          Hashtbl.remove t.table (key c);
          (* Occupancy is owned by the data plane: its sender credits
             every charged byte when it aborts, so dropping the counter
             here would double-subtract.  Only the table shrinks. *)
          refresh_overload t;
          (* Propagate away from whoever told us. *)
          let targets =
            List.filter
              (fun n -> not (Netsim.Node_id.equal n from))
              (prev :: Option.to_list next)
          in
          List.iter
            (fun dst -> Switchboard.send_cell t.sb ~dst (Cell.make c Cell.Destroy))
            targets)
  | Cell.Relay _ -> () (* Data plane handles RELAY cells; ignore here. *)

let create sb =
  let t =
    { sb; table = Hashtbl.create 16; destroyed = 0; crashes = 0; admitted = 0;
      refusals = 0; oom_kills = 0; overload_enters = 0; overloaded = false;
      draining = false; drain_refusals = 0; drain_kills = 0;
      trace = None; probe = None }
  in
  Switchboard.set_control_handler sb (fun ~from cell -> handle t ~from cell);
  (* Enforcement hooks are installed unconditionally; they are inert
     until a budget is set on the switchboard. *)
  Switchboard.set_on_overflow sb (fun () -> handle_overflow t);
  Switchboard.set_on_byte_overload sb (fun _ -> refresh_overload t);
  t

let set_budget t budget = Switchboard.set_budget t.sb budget
let set_trace t trace = t.trace <- Some trace
let set_probe t f = t.probe <- f
let switchboard t = t.sb

(* A crash loses all volatile state: the relay's own data-plane
   senders die with it (their retransmission timers must not outlive
   the process, or the dead relay's sender could be the one to exhaust
   its budget and the session would blame its live successor), the
   routing table is gone, and the node stops dispatching.  No DESTROYs
   are sent — a dead relay cannot say goodbye; its neighbours find out
   by timing out.  Senders are aborted in circuit-id order, like
   [finish_drain]'s victims. *)
let crash t =
  t.crashes <- t.crashes + 1;
  t.draining <- false;
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table []
  |> List.sort compare
  |> List.iter (fun k -> Switchboard.kill_data t.sb (Circuit_id.of_int k));
  Hashtbl.reset t.table;
  Switchboard.set_down t.sb true

let restart t =
  t.draining <- false;
  Switchboard.set_departed t.sb false;
  Switchboard.set_down t.sb false

(* --- graceful drain ------------------------------------------------ *)

let begin_drain t =
  if not t.draining then begin
    t.draining <- true;
    record t Engine.Trace.Drain_begin
      (Printf.sprintf "circuits=%d" (Hashtbl.length t.table))
  end

let draining t = t.draining

(* The drain deadline: surviving circuits are destroyed towards both
   neighbours (unlike a crash, a departing relay says goodbye), the
   local data-plane senders are aborted, and the node flips to the
   departed state where setup attempts bounce back as GONE.  Iterating
   a sorted snapshot keeps the DESTROY order independent of hash
   internals, so runs stay byte-identical across [--jobs]. *)
let finish_drain t =
  let victims =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare
  in
  List.iter
    (fun k ->
      let c = Circuit_id.of_int k in
      match Hashtbl.find_opt t.table k with
      | None -> ()
      | Some { prev; next } ->
          t.drain_kills <- t.drain_kills + 1;
          Switchboard.kill_data t.sb c;
          Hashtbl.remove t.table k;
          List.iter
            (fun dst ->
              Switchboard.send_cell t.sb ~dst (Cell.make c Cell.Destroy))
            (prev :: Option.to_list next);
          Switchboard.drop_circuit_occupancy t.sb c)
    victims;
  refresh_overload t;
  record t Engine.Trace.Drain_end
    (Printf.sprintf "killed=%d" (List.length victims));
  t.draining <- false;
  Switchboard.set_departed t.sb true

let route t c = Hashtbl.find_opt t.table (key c)

let circuits t =
  Hashtbl.fold (fun k _ acc -> Circuit_id.of_int k :: acc) t.table []
  |> List.sort Circuit_id.compare

let destroyed t = t.destroyed
let crashes t = t.crashes
let admitted t = t.admitted
let refusals t = t.refusals
let oom_kills t = t.oom_kills
let overload_enters t = t.overload_enters
let overloaded t = t.overloaded
let drain_refusals t = t.drain_refusals
let drain_kills t = t.drain_kills
