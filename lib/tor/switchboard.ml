type handler = from:Netsim.Node_id.t -> Cell.t -> unit

type budget = { max_circuits : int option; max_queued_bytes : int option }

let no_budget = { max_circuits = None; max_queued_bytes = None }

(* The one admission predicate, shared by the relay CREATE path
   ([Relay_ctl.admits]) and by workloads that model relay occupancy
   with flat counters instead of live switchboards
   ([Workload.Network_experiment]). *)
let within_budget b ~circuits ~queued_bytes =
  (match b.max_circuits with Some cap -> circuits < cap | None -> true)
  && match b.max_queued_bytes with
     | Some cap -> queued_bytes <= cap
     | None -> true

(* Test-only escape hatch: while [true], budget *enforcement* (the
   overflow responder and admission refusals keyed off this module) is
   suppressed but the byte accounting keeps running — so the budget
   oracle can watch occupancy sail past the cap and prove it catches
   the regression.  Never set outside the harness. *)
let unsafe_disable_budget = ref false

type t = {
  net : Netsim.Network.t;
  node : Netsim.Node_id.t;
  circuits : (int, handler) Hashtbl.t;
  mutable control : handler option;
  mutable aux : (Netsim.Packet.t -> unit) option;
  mutable orphans : int;
  mutable down : bool;
  mutable blackholed : int;
  mutable refused : int;
  (* Resource accounting: bytes a data-plane sender at this node holds
     (backlog + in flight) per circuit, and their sum.  The per-circuit
     counter is a ref allocated on the circuit's first charge; the
     steady-state forwarding path only mutates it in place. *)
  occupancy : (int, int ref) Hashtbl.t;
  mutable queued_bytes : int;
  mutable byte_hwm : int;
  mutable budget : budget;
  mutable overloaded : bool;  (* queued_bytes > max_queued_bytes *)
  mutable on_overflow : (unit -> unit) option;
  mutable on_byte_overload : (bool -> unit) option;
  mutable data_kill : (Circuit_id.t -> unit) option;
}

let dispatch t (p : Netsim.Packet.t) =
  if t.down then t.blackholed <- t.blackholed + 1
  else
    match p.payload with
    | Cell.Wire cell -> (
        let key = Circuit_id.to_int cell.circuit in
        match Hashtbl.find_opt t.circuits key with
        | Some h -> h ~from:p.src cell
        | None -> (
            match t.control with
            | Some h -> h ~from:p.src cell
            | None -> t.orphans <- t.orphans + 1))
    | _ -> (
        match t.aux with
        | Some h -> h p
        | None -> t.orphans <- t.orphans + 1)

let send_payload t ?on_transmit ~dst ~size payload =
  if t.down then t.refused <- t.refused + 1
  else
    let p = Netsim.Network.make_packet t.net ~src:t.node ~dst ~size payload in
    Netsim.Network.send t.net ?on_transmit p

let send_cell t ~dst cell = send_payload t ~dst ~size:Cell.size (Cell.Wire cell)

let install net node =
  let t =
    { net; node; circuits = Hashtbl.create 16; control = None; aux = None;
      orphans = 0; down = false; blackholed = 0; refused = 0;
      occupancy = Hashtbl.create 16; queued_bytes = 0; byte_hwm = 0;
      budget = no_budget; overloaded = false; on_overflow = None;
      on_byte_overload = None; data_kill = None }
  in
  Netsim.Network.set_local_handler net node (dispatch t);
  t

let node t = t.node
let network t = t.net

let register_circuit t circuit h =
  let key = Circuit_id.to_int circuit in
  if Hashtbl.mem t.circuits key then
    invalid_arg
      (Format.asprintf "Switchboard.register_circuit: %a already registered at %a"
         Circuit_id.pp circuit Netsim.Node_id.pp t.node);
  Hashtbl.add t.circuits key h

let unregister_circuit t circuit = Hashtbl.remove t.circuits (Circuit_id.to_int circuit)
let set_control_handler t h = t.control <- Some h
let set_aux_handler t h = t.aux <- Some h

let orphan_cells t = t.orphans

let set_down t down = t.down <- down
let is_down t = t.down
let blackholed_cells t = t.blackholed
let refused_sends t = t.refused

(* --- resource accounting ------------------------------------------ *)

let set_budget t budget = t.budget <- budget
let budget t = t.budget
let queued_bytes t = t.queued_bytes
let byte_high_watermark t = t.byte_hwm
let byte_overloaded t = t.overloaded

let circuit_queued_bytes t circuit =
  match Hashtbl.find_opt t.occupancy (Circuit_id.to_int circuit) with
  | Some r -> !r
  | None -> 0

let set_on_overflow t f = t.on_overflow <- Some f
let set_on_byte_overload t f = t.on_byte_overload <- Some f
let set_data_kill t f = t.data_kill <- Some f

let kill_data t circuit =
  match t.data_kill with Some f -> f circuit | None -> ()

(* Recompute the byte-overload flag after a counter move; the hook only
   fires on transitions, so the hot path pays one comparison. *)
let refresh_overload t =
  let over =
    match t.budget.max_queued_bytes with
    | Some cap -> t.queued_bytes > cap
    | None -> false
  in
  if over <> t.overloaded then begin
    t.overloaded <- over;
    match t.on_byte_overload with Some f -> f over | None -> ()
  end

(* The shared answer of [entry] for a circuit with no occupancy entry.
   Never stored in the table and never written. *)
let no_entry = ref 0

(* The occupancy counter of [key], or [no_entry]: unlike
   [Hashtbl.find_opt], finding it allocates no [Some] — charge and
   credit run twice per cell per hop. *)
let entry t key = try Hashtbl.find t.occupancy key with Not_found -> no_entry

let charge t circuit bytes =
  let key = Circuit_id.to_int circuit in
  let r = entry t key in
  if r == no_entry then Hashtbl.add t.occupancy key (ref bytes) else r := !r + bytes;
  t.queued_bytes <- t.queued_bytes + bytes;
  if t.queued_bytes > t.byte_hwm then t.byte_hwm <- t.queued_bytes;
  refresh_overload t;
  if t.overloaded && not !unsafe_disable_budget then
    match t.on_overflow with Some f -> f () | None -> ()

let credit t circuit bytes =
  (* A circuit whose entry was force-dropped ([drop_circuit_occupancy])
     may still see late credits from its sender: clamp to the entry's
     balance so those can never push the totals negative. *)
  let r = entry t (Circuit_id.to_int circuit) in
  if r != no_entry then begin
    let applied = Stdlib.min bytes !r in
    r := !r - applied;
    t.queued_bytes <- t.queued_bytes - applied
  end;
  refresh_overload t

let drop_circuit_occupancy t circuit =
  let key = Circuit_id.to_int circuit in
  match Hashtbl.find_opt t.occupancy key with
  | Some r ->
      t.queued_bytes <- t.queued_bytes - !r;
      Hashtbl.remove t.occupancy key;
      refresh_overload t
  | None -> ()

(* The OOM victim: most queued bytes, ties broken towards the smallest
   circuit id so the choice is independent of hash iteration order. *)
let heaviest_circuit t =
  Hashtbl.fold
    (fun key r best ->
      match best with
      | Some (_, best_bytes) when !r < best_bytes -> best
      | Some (best_key, best_bytes) when !r = best_bytes && key > best_key ->
          best
      | _ -> Some (key, !r))
    t.occupancy None
  |> Option.map (fun (key, _) -> Circuit_id.of_int key)
