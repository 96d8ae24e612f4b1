type flow = {
  on_cell : from:Netsim.Node_id.t -> hop_seq:int -> Tor_model.Cell.t -> unit;
  on_feedback : hop_seq:int -> unit;
}

type t = {
  sb : Tor_model.Switchboard.t;
  flows : (int, flow) Hashtbl.t;
  (* Per-circuit kill switches, pulled by the control plane's OOM
     responder (via [Switchboard.kill_data]).  Kept separate from
     [flows] so deployments that never face overload pay nothing. *)
  kills : (int, unit -> unit) Hashtbl.t;
  mutable orphans : int;
}

(* [Hashtbl.find] rather than [find_opt]: the lookup runs once per
   packet, and the option would be allocated each time. *)
let dispatch t (p : Netsim.Packet.t) =
  match p.payload with
  | Wire.Bt_cell { hop_seq; cell } -> (
      match Hashtbl.find t.flows (Tor_model.Circuit_id.to_int cell.circuit) with
      | flow -> flow.on_cell ~from:p.src ~hop_seq cell
      | exception Not_found -> t.orphans <- t.orphans + 1)
  | Wire.Bt_feedback { circuit; hop_seq } -> (
      match Hashtbl.find t.flows (Tor_model.Circuit_id.to_int circuit) with
      | flow -> flow.on_feedback ~hop_seq
      | exception Not_found -> t.orphans <- t.orphans + 1)
  | _ -> t.orphans <- t.orphans + 1

let install sb =
  let t =
    { sb; flows = Hashtbl.create 16; kills = Hashtbl.create 16; orphans = 0 }
  in
  Tor_model.Switchboard.set_aux_handler sb (dispatch t);
  Tor_model.Switchboard.set_data_kill sb (fun circuit ->
      match Hashtbl.find_opt t.kills (Tor_model.Circuit_id.to_int circuit) with
      | Some kill -> kill ()
      | None -> ());
  t

let switchboard t = t.sb

let register_flow t circuit flow =
  let key = Tor_model.Circuit_id.to_int circuit in
  if Hashtbl.mem t.flows key then
    invalid_arg
      (Format.asprintf "Backtap.Node.register_flow: %a already registered"
         Tor_model.Circuit_id.pp circuit);
  Hashtbl.add t.flows key flow

let set_kill t circuit kill =
  Hashtbl.replace t.kills (Tor_model.Circuit_id.to_int circuit) kill

let unregister_flow t circuit =
  let key = Tor_model.Circuit_id.to_int circuit in
  Hashtbl.remove t.flows key;
  Hashtbl.remove t.kills key

let orphan_messages t = t.orphans
