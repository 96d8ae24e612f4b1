type stream_state = {
  stream_id : int;
  (* The departure stamp of this stream's cell [seq] is
     [departures.(base + seq)]. *)
  base : int;
  source : Tor_model.Stream.Source.t;
  str_sink : Tor_model.Stream.Sink.t;
  mutable str_completed_at : Engine.Time.t option;
}

type state = Running | Completed | Failed

type t = {
  circuit : Tor_model.Circuit.t;
  node_of : Netsim.Node_id.t -> Node.t;
  streams : stream_state array;  (* at least one; cells interleave round-robin *)
  sim : Engine.Sim.t;
  senders : Hop_sender.t array;  (* position 0 = client, one per hop *)
  trace : (Engine.Trace.t * string) option;
  (* Client wire-departure instant in ns of every cell of every stream
     (-1 = none), for end-to-end cell latency.  Stamped by the client
     sender's forward ack, cleared at first delivery so duplicates do
     not sample twice. *)
  departures : int array;
  cell_latency : Engine.Stats.Online.t;
  mutable started : bool;
  mutable first_sent_at : Engine.Time.t option;
  mutable failed_at : Engine.Time.t option;
  mutable failed_hop : int option;
  mutable on_complete : (Engine.Time.t -> unit) option;
  mutable on_fail : (Engine.Time.t -> unit) option;
}

(* Index of stream [id] in [streams] from [i] on, or -1: a plain scan
   with no closure, so the per-cell lookup at the server allocates
   nothing. *)
let rec index_from streams id i =
  if i = Array.length streams then -1
  else if streams.(i).stream_id = id then i
  else index_from streams id (i + 1)

let stream_index t id = index_from t.streams id 0

let stream_of t id =
  let i = stream_index t id in
  if i < 0 then None else Some t.streams.(i)

let all_complete t =
  Array.for_all (fun s -> Tor_model.Stream.Sink.complete s.str_sink) t.streams

let teardown t =
  List.iter
    (fun node ->
      Node.unregister_flow (t.node_of node) t.circuit.Tor_model.Circuit.id)
    (Tor_model.Circuit.nodes t.circuit)

(* Hop [pos] exhausted its retransmission budget: its successor is
   unreachable, so the circuit is dead.  Fail exactly once — kill the
   remaining hop senders, detach every flow, and tell the owner — so
   the simulation winds down instead of spinning on retransmissions. *)
let fail t ~pos =
  if t.failed_at = None && not (all_complete t) then begin
    let now = Engine.Sim.now t.sim in
    t.failed_at <- Some now;
    t.failed_hop <- Some pos;
    Array.iter Hop_sender.abort t.senders;
    teardown t;
    (match t.trace with
    | Some (registry, prefix) ->
        Engine.Trace.record_event registry Engine.Trace.Abort ~subject:prefix
          ~detail:(Printf.sprintf "hop %d retransmission budget exhausted" pos)
          now
    | None -> ());
    match t.on_fail with Some f -> f now | None -> ()
  end

let feedback_to t sb ~pred ~hop_seq =
  Tor_model.Switchboard.send_payload sb ~dst:pred ~size:Wire.feedback_size
    (Wire.Bt_feedback { circuit = t.circuit.Tor_model.Circuit.id; hop_seq })

(* Flow at a forwarding relay (has both a predecessor and a successor).
   The feedback for a forwarded cell is the sender's forward ack, fed
   the cell's upstream hop sequence: one closure per relay, not one per
   cell. *)
let relay_flow t ~node ~pred ~sender =
  let sb = Node.switchboard (t.node_of node) in
  Hop_sender.set_forward_ack sender (fun hop_seq -> feedback_to t sb ~pred ~hop_seq);
  {
    Node.on_cell =
      (fun ~from ~hop_seq cell ->
        if Netsim.Node_id.equal from pred then
          Hop_sender.forward sender ~ack_seq:hop_seq (Tor_model.Crypto_sim.peel cell));
    on_feedback = (fun ~hop_seq -> Hop_sender.on_feedback sender ~hop_seq);
  }

(* The data cell of stream [st] with sequence [seq] reached the sink:
   sample its latency (once: the stamp is cleared), deliver it, and
   complete the stream, and perhaps the transfer, with it.  A [seq]
   outside the stream makes [Sink.deliver] raise. *)
let deliver t st ~now ~seq cmd =
  let i = st.base + seq in
  let dep = t.departures.(i) in
  if dep >= 0 then begin
    t.departures.(i) <- -1;
    Engine.Stats.Online.add t.cell_latency
      (Engine.Time.to_sec_f (Engine.Time.diff now (Engine.Time.ns dep)))
  end;
  let was_complete = Tor_model.Stream.Sink.complete st.str_sink in
  Tor_model.Stream.Sink.deliver st.str_sink ~now cmd;
  if (not was_complete) && Tor_model.Stream.Sink.complete st.str_sink then begin
    st.str_completed_at <- Some now;
    if all_complete t then begin
      match t.on_complete with Some f -> f now | None -> ()
    end
  end

(* Flow at the server endpoint: deliver and acknowledge immediately. *)
let server_flow t ~pred =
  let sb = Node.switchboard (t.node_of t.circuit.Tor_model.Circuit.server) in
  {
    Node.on_cell =
      (fun ~from ~hop_seq cell ->
        if Netsim.Node_id.equal from pred then begin
          (match cell.Tor_model.Cell.command with
          | Tor_model.Cell.Relay
              { layers = 0; cmd = Tor_model.Cell.Relay_data { stream_id; seq; _ } as cmd }
            ->
              let i = stream_index t stream_id in
              (* Data for an unknown stream is dropped. *)
              if i >= 0 then deliver t t.streams.(i) ~now:(Engine.Sim.now t.sim) ~seq cmd
          | Tor_model.Cell.Relay
              { layers = 0; cmd = Tor_model.Cell.Relay_sendme _ | Tor_model.Cell.Relay_end _ }
            ->
              ()
          | _ ->
              (* A still-wrapped cell at the server is a layering bug. *)
              failwith "Backtap.Transfer: cell reached server with layers left");
          feedback_to t sb ~pred ~hop_seq
        end);
    on_feedback = (fun ~hop_seq:_ -> ());
  }

let client_flow ~sender =
  {
    Node.on_cell = (fun ~from:_ ~hop_seq:_ _cell -> ());
    on_feedback = (fun ~hop_seq -> Hop_sender.on_feedback sender ~hop_seq);
  }

let deploy_streams ~node_of ~circuit ~streams ~strategy
    ?(params = Circuitstart.Params.default) ?trace ?rto_min ?rto_initial
    ?max_retries ?(offsets = []) ?on_complete ?on_fail () =
  if streams = [] then invalid_arg "Backtap.Transfer.deploy_streams: no streams";
  let ids = List.map fst streams in
  if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
    invalid_arg "Backtap.Transfer.deploy_streams: duplicate stream id";
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id streams) then
        invalid_arg "Backtap.Transfer.deploy_streams: offset for unknown stream")
    offsets;
  let offset_of id = Option.value ~default:0 (List.assoc_opt id offsets) in
  let nodes = Tor_model.Circuit.nodes circuit in
  let node_arr = Array.of_list nodes in
  let hops = Array.length node_arr - 1 in
  let client_sb = Node.switchboard (node_of circuit.Tor_model.Circuit.client) in
  let sim = Netsim.Network.sim (Tor_model.Switchboard.network client_sb) in
  let make_sender pos =
    let controller = Circuitstart.Controller.create ~params strategy in
    Circuitstart.Controller.set_debug_label controller
      (Printf.sprintf "%s/hop%d"
         (Tor_model.Circuit_id.to_int circuit.Tor_model.Circuit.id |> string_of_int)
         pos);
    Hop_sender.create
      ~sb:(Node.switchboard (node_of node_arr.(pos)))
      ~circuit:circuit.Tor_model.Circuit.id ~succ:node_arr.(pos + 1) ~controller
      ?rto_min ?rto_initial ?max_retries ()
  in
  let senders = Array.init hops make_sender in
  let base = ref 0 in
  let streams =
    Array.of_list
      (List.map
         (fun (stream_id, bytes) ->
           let start_byte = offset_of stream_id in
           let source = Tor_model.Stream.Source.create ~start_byte ~stream_id ~bytes () in
           let st =
             { stream_id; base = !base; source;
               str_sink = Tor_model.Stream.Sink.create ~start_byte ~expected_bytes:bytes ();
               str_completed_at = None }
           in
           base := !base + Tor_model.Stream.Source.cell_count source;
           st)
         streams)
  in
  let t =
    {
      circuit;
      node_of;
      streams;
      sim;
      senders;
      trace;
      departures = Array.make !base (-1);
      cell_latency = Engine.Stats.Online.create ();
      started = false;
      first_sent_at = None;
      failed_at = None;
      failed_hop = None;
      on_complete;
      on_fail;
    }
  in
  Array.iteri (fun pos s -> Hop_sender.set_on_abort s (fun () -> fail t ~pos)) senders;
  (* The client acks a cell by stamping its wire departure (not the
     submit — the whole file is queued up-front) for end-to-end
     latency; [start] queues each cell under its stamp's index. *)
  Hop_sender.set_forward_ack senders.(0) (fun i ->
      t.departures.(i) <- (Engine.Sim.now sim :> int));
  (* Client flow at position 0. *)
  Node.register_flow
    (node_of circuit.Tor_model.Circuit.client)
    circuit.Tor_model.Circuit.id
    (client_flow ~sender:senders.(0));
  (* Relay flows at positions 1 .. hops-1.  Each relay also gets a kill
     switch: when its control plane OOM-kills this circuit, the local
     sender aborts silently, dropping the queued bytes at once (the
     client learns of the kill from the relay's DESTROY, not from
     here). *)
  for pos = 1 to hops - 1 do
    Node.register_flow (node_of node_arr.(pos)) circuit.Tor_model.Circuit.id
      (relay_flow t ~node:node_arr.(pos) ~pred:node_arr.(pos - 1) ~sender:senders.(pos));
    Node.set_kill (node_of node_arr.(pos)) circuit.Tor_model.Circuit.id
      (fun () -> Hop_sender.abort senders.(pos))
  done;
  (* Server flow at the last position. *)
  Node.register_flow
    (node_of circuit.Tor_model.Circuit.server)
    circuit.Tor_model.Circuit.id
    (server_flow t ~pred:node_arr.(hops - 1));
  t

let deploy ~node_of ~circuit ~bytes ~strategy ?params ?trace ?rto_min ?rto_initial
    ?max_retries ?(stream_id = 0) ?(offset = 0) ?on_complete ?on_fail () =
  deploy_streams ~node_of ~circuit ~streams:[ (stream_id, bytes) ] ~strategy ?params
    ?trace ?rto_min ?rto_initial ?max_retries ~offsets:[ (stream_id, offset) ]
    ?on_complete ?on_fail ()

let start t =
  if t.started then invalid_arg "Backtap.Transfer.start: already started";
  t.started <- true;
  t.first_sent_at <- Some (Engine.Sim.now t.sim);
  let layers = Tor_model.Circuit.layer_count t.circuit in
  let id = t.circuit.Tor_model.Circuit.id in
  (* Round-robin across streams so concurrent streams share the circuit
     fairly (as Tor's cell scheduler interleaves streams): each round
     takes one cell from every stream that still has one. *)
  let progressed = ref true in
  while !progressed do
    progressed := false;
    for i = 0 to Array.length t.streams - 1 do
      let st = t.streams.(i) in
      if Tor_model.Stream.Source.remaining st.source > 0 then begin
        let ack_seq = st.base + Tor_model.Stream.Source.next_seq st.source in
        Hop_sender.forward t.senders.(0) ~ack_seq
          (Tor_model.Stream.Source.take_cell st.source id ~layers);
        progressed := true
      end
    done
  done

let circuit t = t.circuit
let complete t = all_complete t
let first_sent_at t = t.first_sent_at
let failed t = t.failed_at <> None
let failed_at t = t.failed_at
let failed_hop t = t.failed_hop

let state t =
  if failed t then Failed else if all_complete t then Completed else Running

let completed_at t =
  (* The instant the *last* stream finished, once every stream has. *)
  Array.fold_left
    (fun acc st ->
      match (acc, st.str_completed_at) with
      | Some a, Some b -> Some (Engine.Time.max a b)
      | _, None | None, _ -> None)
    t.streams.(0).str_completed_at t.streams

let time_to_last_byte t =
  match (t.first_sent_at, completed_at t) with
  | Some a, Some b -> Some (Engine.Time.diff b a)
  | _ -> None

let delivered_bytes t =
  Array.fold_left
    (fun acc st -> acc + Tor_model.Stream.Sink.delivered_bytes st.str_sink)
    0 t.streams

let sink t = t.streams.(0).str_sink

let stream_sink t stream_id = Option.map (fun st -> st.str_sink) (stream_of t stream_id)

let stream_completed_at t stream_id =
  Option.bind (stream_of t stream_id) (fun st -> st.str_completed_at)

let stream_ids t = Array.to_list (Array.map (fun st -> st.stream_id) t.streams)

let sender_at t pos =
  if pos >= 0 && pos < Array.length t.senders then Some t.senders.(pos) else None

let senders t = Array.to_list t.senders

let trace_cwnd t (registry, prefix) =
  Array.iteri
    (fun pos sender ->
      let controller = Hop_sender.controller sender in
      let key = Printf.sprintf "%s/cwnd/%d" prefix pos in
      Engine.Trace.record registry key (Engine.Sim.now t.sim)
        (float_of_int (Circuitstart.Controller.cwnd controller));
      Circuitstart.Controller.set_on_change controller (fun ~now v ->
          Engine.Trace.record registry key now (float_of_int v)))
    t.senders

let cell_latency_stats t = t.cell_latency

let total_retransmissions t =
  Array.fold_left (fun acc s -> acc + Hop_sender.retransmissions s) 0 t.senders
