type config = {
  circuit_window : int;
  stream_window : int;
  circuit_increment : int;
  stream_increment : int;
}

let default_config =
  { circuit_window = 1000; stream_window = 500; circuit_increment = 100;
    stream_increment = 50 }

let validate_config c =
  if c.circuit_window < 1 then Error "circuit_window must be positive"
  else if c.stream_window < 1 then Error "stream_window must be positive"
  else if c.circuit_increment < 1 || c.circuit_increment > c.circuit_window then
    Error "circuit_increment must be in [1, circuit_window]"
  else if c.stream_increment < 1 || c.stream_increment > c.stream_window then
    Error "stream_increment must be in [1, stream_window]"
  else Ok c

type t = {
  config : config;
  circuit : Circuit.t;
  source : Stream.Source.t;
  sink : Stream.Sink.t;
  sb_of : Netsim.Node_id.t -> Switchboard.t;
  sim : Engine.Sim.t;
  mutable circ_credit : int;
  mutable stream_credit : int;
  mutable started : bool;
  mutable first_sent_at : Engine.Time.t option;
  mutable sendmes : int;
  (* Server-side delivery counters that trigger SENDME emission. *)
  mutable circ_since_sendme : int;
  mutable stream_since_sendme : int;
  (* Client departure instant in ns of each cell, indexed by seq (-1 =
     none); cleared at first delivery. *)
  departures : int array;
  cell_latency : Engine.Stats.Online.t;
}

let guard_node t =
  match t.circuit.Circuit.relays with
  | r :: _ -> r.Relay_info.node
  | [] -> assert false

(* Client pump: send while end-to-end credit and data remain.  The
   burst goes straight into the access link's queue — legacy Tor has no
   pacing below the window, which is exactly its failure mode. *)
let pump t =
  let client_sb = t.sb_of t.circuit.Circuit.client in
  let guard = guard_node t in
  let layers = Circuit.layer_count t.circuit in
  while
    t.circ_credit > 0 && t.stream_credit > 0 && Stream.Source.remaining t.source > 0
  do
    if t.first_sent_at = None then t.first_sent_at <- Some (Engine.Sim.now t.sim);
    t.circ_credit <- t.circ_credit - 1;
    t.stream_credit <- t.stream_credit - 1;
    (* Stamped at the send decision: legacy Tor's own access queue is
       part of the latency it inflicts. *)
    t.departures.(Stream.Source.next_seq t.source) <- (Engine.Sim.now t.sim :> int);
    Switchboard.send_cell client_sb ~dst:guard
      (Stream.Source.take_cell t.source t.circuit.Circuit.id ~layers)
  done

let client_handler t ~from:_ (cell : Cell.t) =
  match Cell.relay_cmd cell with
  | Some (Cell.Relay_sendme { stream_id = None }) ->
      t.sendmes <- t.sendmes + 1;
      t.circ_credit <- t.circ_credit + t.config.circuit_increment;
      pump t
  | Some (Cell.Relay_sendme { stream_id = Some _ }) ->
      t.sendmes <- t.sendmes + 1;
      t.stream_credit <- t.stream_credit + t.config.stream_increment;
      pump t
  | Some (Cell.Relay_data _ | Cell.Relay_end _) | None -> ()

(* A relay forwards data cells onward (peeling one layer) and SENDME
   credits backward, deciding direction by which neighbour delivered
   the cell.  Its neighbours are resolved once, at deploy. *)
let relay_handler ~sb ~pred ~succ ~from (cell : Cell.t) =
  if Netsim.Node_id.equal pred from then
    Switchboard.send_cell sb ~dst:succ (Crypto_sim.peel cell)
  else Switchboard.send_cell sb ~dst:pred cell

(* A SENDME from the server to its predecessor [prev]. *)
let send_back t ~sb ~prev cmd =
  Switchboard.send_cell sb ~dst:prev
    (Cell.make t.circuit.Circuit.id (Cell.Relay { layers = 0; cmd }))

let server_handler t ~sb ~prev ~from:_ (cell : Cell.t) =
  match cell.command with
  | Cell.Relay { layers = 0; cmd = Cell.Relay_data { stream_id; seq; _ } as cmd } ->
      let now = Engine.Sim.now t.sim in
      let dep = t.departures.(seq) in
      if dep >= 0 then begin
        t.departures.(seq) <- -1;
        Engine.Stats.Online.add t.cell_latency
          (Engine.Time.to_sec_f (Engine.Time.diff now (Engine.Time.ns dep)))
      end;
      Stream.Sink.deliver t.sink ~now cmd;
      t.circ_since_sendme <- t.circ_since_sendme + 1;
      t.stream_since_sendme <- t.stream_since_sendme + 1;
      if t.circ_since_sendme >= t.config.circuit_increment then begin
        t.circ_since_sendme <- 0;
        send_back t ~sb ~prev (Cell.Relay_sendme { stream_id = None })
      end;
      if t.stream_since_sendme >= t.config.stream_increment then begin
        t.stream_since_sendme <- 0;
        send_back t ~sb ~prev (Cell.Relay_sendme { stream_id = Some stream_id })
      end
  | Cell.Relay _ | Cell.Create | Cell.Created | Cell.Extend _ | Cell.Extended
  | Cell.Refused _ | Cell.Gone | Cell.Destroy ->
      ()

let deploy ~sb_of ~circuit ~bytes ?(config = default_config) ?(stream_id = 0) () =
  let config =
    match validate_config config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Sendme.deploy: " ^ msg)
  in
  let client_sb = sb_of circuit.Circuit.client in
  let sim = Netsim.Network.sim (Switchboard.network client_sb) in
  let source = Stream.Source.create ~stream_id ~bytes () in
  let t =
    {
      config;
      circuit;
      source;
      sink = Stream.Sink.create ~expected_bytes:bytes ();
      sb_of;
      sim;
      circ_credit = config.circuit_window;
      stream_credit = config.stream_window;
      started = false;
      first_sent_at = None;
      sendmes = 0;
      circ_since_sendme = 0;
      stream_since_sendme = 0;
      departures = Array.make (Stream.Source.cell_count source) (-1);
      cell_latency = Engine.Stats.Online.create ();
    }
  in
  let neighbour f node =
    match f circuit node with Some n -> n | None -> assert false
  in
  Switchboard.register_circuit client_sb circuit.Circuit.id (client_handler t);
  List.iter
    (fun (r : Relay_info.t) ->
      Switchboard.register_circuit (sb_of r.node) circuit.Circuit.id
        (relay_handler ~sb:(sb_of r.node)
           ~pred:(neighbour Circuit.predecessor r.node)
           ~succ:(neighbour Circuit.successor r.node)))
    circuit.Circuit.relays;
  let server = circuit.Circuit.server in
  Switchboard.register_circuit (sb_of server) circuit.Circuit.id
    (server_handler t ~sb:(sb_of server) ~prev:(neighbour Circuit.predecessor server));
  t

let start t =
  if t.started then invalid_arg "Sendme.start: already started";
  t.started <- true;
  pump t

let complete t = Stream.Sink.complete t.sink
let first_sent_at t = t.first_sent_at
let completed_at t = Stream.Sink.completed_at t.sink

let time_to_last_byte t =
  match (t.first_sent_at, completed_at t) with
  | Some a, Some b -> Some (Engine.Time.diff b a)
  | _ -> None

let sink t = t.sink
let cell_latency_stats t = t.cell_latency
let client_credit t = Stdlib.min t.circ_credit t.stream_credit
let sendmes_received t = t.sendmes

let teardown t =
  List.iter
    (fun node -> Switchboard.unregister_circuit (t.sb_of node) t.circuit.Circuit.id)
    (Circuit.nodes t.circuit)
