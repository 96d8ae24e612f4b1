(* Tests for the BackTap hop transport: wire format, the windowed hop
   sender (with loss and retransmission), per-node dispatch, and the
   end-to-end circuit transfer. *)

let time = Alcotest.testable Engine.Time.pp Engine.Time.equal

(* ------------------------------------------------------------------ *)
(* Wire format *)

let test_wire_sizes () =
  Alcotest.(check int) "cell envelope" (Tor_model.Cell.size + 8) Backtap.Wire.cell_size;
  Alcotest.(check int) "feedback" 43 Backtap.Wire.feedback_size

(* ------------------------------------------------------------------ *)
(* Fixtures: a two/three leaf star with switchboards + backtap nodes *)

let mk_net ?(queue = Netsim.Nqueue.unbounded) ?(rate = Engine.Units.Rate.mbit 10) n =
  let sim = Engine.Sim.create () in
  let topo, _, leaves =
    Netsim.Topology.star sim ~hub:"hub"
      ~leaves:(List.init n (fun i -> (Printf.sprintf "l%d" i, rate, Engine.Time.ms 5)))
      ~queue ()
  in
  let net = Netsim.Network.create topo in
  let sbs = Array.of_list (List.map (Tor_model.Switchboard.install net) leaves) in
  let bts = Array.map Backtap.Node.install sbs in
  (sim, net, Array.of_list leaves, sbs, bts)

let circ = Tor_model.Circuit_id.of_int 0

let data_cell seq =
  Tor_model.Cell.data circ ~layers:0 ~stream_id:0 ~seq ~length:100 ~last:false

(* ------------------------------------------------------------------ *)
(* Node dispatch *)

let test_node_dispatch () =
  let sim, _, leaves, sbs, bts = mk_net 2 in
  let got_cells = ref [] and got_fb = ref [] in
  Backtap.Node.register_flow bts.(1) circ
    {
      Backtap.Node.on_cell = (fun ~from:_ ~hop_seq cell -> got_cells := (hop_seq, cell) :: !got_cells);
      on_feedback = (fun ~hop_seq -> got_fb := hop_seq :: !got_fb);
    };
  Tor_model.Switchboard.send_payload sbs.(0) ~dst:leaves.(1) ~size:Backtap.Wire.cell_size
    (Backtap.Wire.Bt_cell { hop_seq = 4; cell = data_cell 0 });
  Tor_model.Switchboard.send_payload sbs.(0) ~dst:leaves.(1) ~size:Backtap.Wire.feedback_size
    (Backtap.Wire.Bt_feedback { circuit = circ; hop_seq = 9 });
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "cell hop_seq" [ 4 ] (List.map fst !got_cells);
  Alcotest.(check (list int)) "feedback hop_seq" [ 9 ] !got_fb;
  Alcotest.(check int) "no orphans" 0 (Backtap.Node.orphan_messages bts.(1))

let test_node_orphans () =
  let sim, _, leaves, sbs, bts = mk_net 2 in
  Tor_model.Switchboard.send_payload sbs.(0) ~dst:leaves.(1) ~size:Backtap.Wire.cell_size
    (Backtap.Wire.Bt_cell { hop_seq = 0; cell = data_cell 0 });
  Engine.Sim.run sim;
  Alcotest.(check int) "orphaned" 1 (Backtap.Node.orphan_messages bts.(1))

let test_node_double_register () =
  let _, _, _, _, bts = mk_net 2 in
  let flow =
    { Backtap.Node.on_cell = (fun ~from:_ ~hop_seq:_ _ -> ()); on_feedback = (fun ~hop_seq:_ -> ()) }
  in
  Backtap.Node.register_flow bts.(0) circ flow;
  Alcotest.(check bool) "double register raises" true
    (try
       Backtap.Node.register_flow bts.(0) circ flow;
       false
     with Invalid_argument _ -> true);
  Backtap.Node.unregister_flow bts.(0) circ;
  Backtap.Node.register_flow bts.(0) circ flow

(* ------------------------------------------------------------------ *)
(* Hop sender on a clean two-node path *)

(* Successor that forwards instantly: every incoming envelope is
   answered with feedback (like the server endpoint). *)
let echo_successor sbs bts ~at ~to_ =
  Backtap.Node.register_flow bts.(at) circ
    {
      Backtap.Node.on_cell =
        (fun ~from ~hop_seq _cell ->
          ignore from;
          Tor_model.Switchboard.send_payload sbs.(at) ~dst:to_
            ~size:Backtap.Wire.feedback_size
            (Backtap.Wire.Bt_feedback { circuit = circ; hop_seq }));
      on_feedback = (fun ~hop_seq:_ -> ());
    }

let test_hop_sender_window_gating () =
  let sim, _, leaves, sbs, bts = mk_net 2 in
  let controller = Circuitstart.Controller.create (Circuitstart.Controller.Fixed 2) in
  let sender =
    Backtap.Hop_sender.create ~sb:sbs.(0) ~circuit:circ ~succ:leaves.(1) ~controller ()
  in
  Backtap.Node.register_flow bts.(0) circ
    {
      Backtap.Node.on_cell = (fun ~from:_ ~hop_seq:_ _ -> ());
      on_feedback = (fun ~hop_seq -> Backtap.Hop_sender.on_feedback sender ~hop_seq);
    };
  echo_successor sbs bts ~at:1 ~to_:leaves.(0);
  for seq = 0 to 9 do
    Backtap.Hop_sender.forward sender ~ack_seq:0 (data_cell seq)
  done;
  Alcotest.(check int) "window limits inflight" 2 (Backtap.Hop_sender.inflight sender);
  Alcotest.(check int) "rest queued" 8 (Backtap.Hop_sender.queue_length sender);
  Engine.Sim.run sim;
  Alcotest.(check bool) "drained" true (Backtap.Hop_sender.idle sender);
  Alcotest.(check int) "all sent" 10 (Backtap.Hop_sender.cells_sent sender);
  Alcotest.(check int) "no retransmissions" 0 (Backtap.Hop_sender.retransmissions sender);
  Alcotest.(check bool) "srtt measured" true (Backtap.Hop_sender.srtt sender <> None)

let test_hop_sender_ack_at_wire () =
  let sim, _, leaves, sbs, bts = mk_net 2 in
  let controller = Circuitstart.Controller.create (Circuitstart.Controller.Fixed 4) in
  let sender =
    Backtap.Hop_sender.create ~sb:sbs.(0) ~circuit:circ ~succ:leaves.(1) ~controller ()
  in
  Backtap.Node.register_flow bts.(0) circ
    {
      Backtap.Node.on_cell = (fun ~from:_ ~hop_seq:_ _ -> ());
      on_feedback = (fun ~hop_seq -> Backtap.Hop_sender.on_feedback sender ~hop_seq);
    };
  echo_successor sbs bts ~at:1 ~to_:leaves.(0);
  (* The one ack path: the forward ack runs with the index each cell
     was queued under, at the cell's first wire departure. *)
  let acks = ref [] in
  Backtap.Hop_sender.set_forward_ack sender (fun i ->
      acks := (i, Engine.Sim.now sim) :: !acks);
  Backtap.Hop_sender.forward sender ~ack_seq:10 (data_cell 0);
  Backtap.Hop_sender.forward sender ~ack_seq:11 (data_cell 1);
  Engine.Sim.run sim;
  (match List.rev !acks with
  | [ (i0, t0); (i1, t1) ] ->
      Alcotest.(check (pair int int)) "each cell acks under its own index" (10, 11)
        (i0, i1);
      Alcotest.check time "first ack at serialization start" Engine.Time.zero t0;
      (* 520 bytes at 10 Mbit/s = 416 us serialization. *)
      Alcotest.check time "second ack one serialization later" (Engine.Time.us 416) t1
  | _ -> Alcotest.fail "expected two acks");
  Alcotest.(check int) "acks fired once each" 2 (List.length !acks)

let test_hop_sender_retransmission () =
  (* A tiny hub-side queue forces drops; the RTO must recover them. *)
  let sim, _, leaves, sbs, bts = mk_net ~queue:(Netsim.Nqueue.packets 2) 2 in
  let controller = Circuitstart.Controller.create (Circuitstart.Controller.Fixed 20) in
  let sender =
    Backtap.Hop_sender.create ~sb:sbs.(0) ~circuit:circ ~succ:leaves.(1) ~controller
      ~rto_min:(Engine.Time.ms 50) ()
  in
  let received = Hashtbl.create 32 in
  Backtap.Node.register_flow bts.(0) circ
    {
      Backtap.Node.on_cell = (fun ~from:_ ~hop_seq:_ _ -> ());
      on_feedback = (fun ~hop_seq -> Backtap.Hop_sender.on_feedback sender ~hop_seq);
    };
  Backtap.Node.register_flow bts.(1) circ
    {
      Backtap.Node.on_cell =
        (fun ~from:_ ~hop_seq cell ->
          (match Tor_model.Cell.relay_cmd cell with
          | Some (Tor_model.Cell.Relay_data { seq; _ }) -> Hashtbl.replace received seq ()
          | _ -> ());
          Tor_model.Switchboard.send_payload sbs.(1) ~dst:leaves.(0)
            ~size:Backtap.Wire.feedback_size
            (Backtap.Wire.Bt_feedback { circuit = circ; hop_seq }));
      on_feedback = (fun ~hop_seq:_ -> ());
    };
  for seq = 0 to 19 do
    Backtap.Hop_sender.forward sender ~ack_seq:0 (data_cell seq)
  done;
  Engine.Sim.run sim ~until:(Engine.Time.s 30);
  Alcotest.(check int) "all 20 delivered despite drops" 20 (Hashtbl.length received);
  Alcotest.(check bool) "drops caused retransmissions" true
    (Backtap.Hop_sender.retransmissions sender > 0);
  Alcotest.(check bool) "sender drained" true (Backtap.Hop_sender.idle sender)

let test_hop_sender_spurious_feedback () =
  let sim, _, leaves, sbs, bts = mk_net 2 in
  let controller = Circuitstart.Controller.create (Circuitstart.Controller.Fixed 2) in
  let sender =
    Backtap.Hop_sender.create ~sb:sbs.(0) ~circuit:circ ~succ:leaves.(1) ~controller ()
  in
  Backtap.Node.register_flow bts.(0) circ
    {
      Backtap.Node.on_cell = (fun ~from:_ ~hop_seq:_ _ -> ());
      on_feedback = (fun ~hop_seq -> Backtap.Hop_sender.on_feedback sender ~hop_seq);
    };
  Backtap.Node.register_flow bts.(1) circ
    {
      Backtap.Node.on_cell =
        (fun ~from:_ ~hop_seq _ ->
          (* Acknowledge twice: the second must count as spurious. *)
          for _ = 1 to 2 do
            Tor_model.Switchboard.send_payload sbs.(1) ~dst:leaves.(0)
              ~size:Backtap.Wire.feedback_size
              (Backtap.Wire.Bt_feedback { circuit = circ; hop_seq })
          done);
      on_feedback = (fun ~hop_seq:_ -> ());
    };
  Backtap.Hop_sender.forward sender ~ack_seq:0 (data_cell 0);
  Engine.Sim.run sim;
  Alcotest.(check int) "one spurious" 1 (Backtap.Hop_sender.spurious_feedback sender)

(* A sender facing a successor that never answers must retransmit on an
   exponentially backed-off schedule and trip its budget at a
   computable instant — this is the failure-detection bound the whole
   fault subsystem leans on. *)
let test_hop_sender_backoff_and_trip () =
  let sim, _, leaves, sbs, bts = mk_net 2 in
  let controller = Circuitstart.Controller.create (Circuitstart.Controller.Fixed 2) in
  let sender =
    Backtap.Hop_sender.create ~sb:sbs.(0) ~circuit:circ ~succ:leaves.(1) ~controller
      ~rto_initial:(Engine.Time.ms 100) ~max_retries:3 ()
  in
  (* The successor swallows every cell: no feedback, ever. *)
  Backtap.Node.register_flow bts.(1) circ
    {
      Backtap.Node.on_cell = (fun ~from:_ ~hop_seq:_ _ -> ());
      on_feedback = (fun ~hop_seq:_ -> ());
    };
  let aborted_at = ref None in
  Backtap.Hop_sender.set_on_abort sender (fun () ->
      aborted_at := Some (Engine.Sim.now sim));
  Backtap.Hop_sender.forward sender ~ack_seq:0 (data_cell 0);
  Engine.Sim.run sim ~until:(Engine.Time.s 10);
  Alcotest.(check int) "budget spent exactly" 3
    (Backtap.Hop_sender.retransmissions sender);
  Alcotest.(check bool) "sender aborted" true (Backtap.Hop_sender.aborted sender);
  (* No RTT sample ever arrives, so every timer uses rto_initial with
     doubling backoff: retransmissions at ~100, 300, 700 ms and the
     trip at ~1500 ms after the first wire departure. *)
  (match !aborted_at with
  | None -> Alcotest.fail "on_abort never fired"
  | Some at ->
      Alcotest.(check bool)
        (Format.asprintf "tripped at %a, inside [1.5s, 1.6s]" Engine.Time.pp at)
        true
        Engine.Time.(at >= Engine.Time.ms 1500 && at <= Engine.Time.ms 1600));
  Alcotest.(check bool) "no srtt without any sample" true
    (Backtap.Hop_sender.srtt sender = None);
  (* Terminal: submissions are ignored, the abort fires only once. *)
  Backtap.Hop_sender.forward sender ~ack_seq:0 (data_cell 1);
  Engine.Sim.run sim;
  Alcotest.(check int) "aborted sender sends nothing" 1
    (Backtap.Hop_sender.cells_sent sender)

(* Karn's rule: feedback for a retransmitted cell must not feed the
   RTT estimator (the sample is ambiguous), while a cleanly delivered
   cell must. *)
let test_hop_sender_karn_rule () =
  let sim, _, leaves, sbs, bts = mk_net 2 in
  let controller = Circuitstart.Controller.create (Circuitstart.Controller.Fixed 2) in
  let sender =
    Backtap.Hop_sender.create ~sb:sbs.(0) ~circuit:circ ~succ:leaves.(1) ~controller
      ~rto_min:(Engine.Time.ms 50) ~rto_initial:(Engine.Time.ms 50) ()
  in
  Backtap.Node.register_flow bts.(0) circ
    {
      Backtap.Node.on_cell = (fun ~from:_ ~hop_seq:_ _ -> ());
      on_feedback = (fun ~hop_seq -> Backtap.Hop_sender.on_feedback sender ~hop_seq);
    };
  (* The successor acknowledges each sequence number exactly once, but
     only 200 ms after first receipt — far beyond the 50 ms RTO, so by
     then the cell has been retransmitted and the sample is ambiguous. *)
  let seen = Hashtbl.create 8 in
  Backtap.Node.register_flow bts.(1) circ
    {
      Backtap.Node.on_cell =
        (fun ~from:_ ~hop_seq _ ->
          if not (Hashtbl.mem seen hop_seq) then begin
            Hashtbl.add seen hop_seq ();
            ignore @@
            Engine.Sim.schedule_after sim (Engine.Time.ms 200) (fun () ->
                Tor_model.Switchboard.send_payload sbs.(1) ~dst:leaves.(0)
                  ~size:Backtap.Wire.feedback_size
                  (Backtap.Wire.Bt_feedback { circuit = circ; hop_seq }))
          end);
      on_feedback = (fun ~hop_seq:_ -> ());
    };
  Backtap.Hop_sender.forward sender ~ack_seq:0 (data_cell 0);
  Engine.Sim.run sim ~until:(Engine.Time.s 2);
  Alcotest.(check bool) "cell was retransmitted" true
    (Backtap.Hop_sender.retransmissions sender > 0);
  Alcotest.(check bool) "Karn: ambiguous sample discarded" true
    (Backtap.Hop_sender.srtt sender = None);
  Alcotest.(check bool) "window slot freed" true (Backtap.Hop_sender.idle sender)

(* Use-after-recycle regression: a queued attempt's wire-departure
   registration outlives the pending that sent it.  Force a spurious
   RTO while the first attempt is still stuck in the access-link queue,
   deliver feedback (recycling the pooled pending), and reuse the
   record for a new cell — when the leftover attempts of the old
   incarnation finally serialize, their firings must be no-ops.  Under
   the bug they invoked [transmit_done] on the reused record: the new
   cell's ack fired before its packet reached the wire, its
   first-transmit flag was consumed and its RTT clock corrupted. *)
let test_hop_sender_stale_transmit_after_recycle () =
  (* 8 kbit/s serializes one 520-byte envelope in exactly 520 ms, so
     queued attempts outlive a 200 ms RTO by a wide margin. *)
  let sim, _, leaves, sbs, _ = mk_net ~rate:(Engine.Units.Rate.bps 8_000) 2 in
  let controller = Circuitstart.Controller.create (Circuitstart.Controller.Fixed 2) in
  let sender =
    Backtap.Hop_sender.create ~sb:sbs.(0) ~circuit:circ ~succ:leaves.(1) ~controller
      ~rto_initial:(Engine.Time.ms 200) ()
  in
  (* Cells A (hop_seq 0) and B (hop_seq 1): A serializes immediately,
     B waits in the access-link queue behind it. *)
  Backtap.Hop_sender.forward sender ~ack_seq:0 (data_cell 0);
  Backtap.Hop_sender.forward sender ~ack_seq:0 (data_cell 1);
  (* t=150ms: feedback for A — seeds srtt=150ms (rto becomes 450 ms).
     At t=200ms B's queued-drop watchdog fires a spurious retransmit:
     two attempts of B now sit in the queue. *)
  ignore @@
  Engine.Sim.schedule_after sim (Engine.Time.ms 150) (fun () ->
      Backtap.Hop_sender.on_feedback sender ~hop_seq:0);
  (* t=300ms: feedback for B recycles its pending while both attempts
     are still queued; cell C (hop_seq 2) immediately reuses it. *)
  let ack_times = ref [] in
  Backtap.Hop_sender.set_forward_ack sender (fun _ ->
      ack_times := Engine.Sim.now sim :: !ack_times);
  ignore @@
  Engine.Sim.schedule_after sim (Engine.Time.ms 300) (fun () ->
      Backtap.Hop_sender.on_feedback sender ~hop_seq:1;
      Backtap.Hop_sender.forward sender ~ack_seq:2 (data_cell 2));
  ignore @@
  Engine.Sim.schedule_after sim (Engine.Time.ms 2200) (fun () ->
      Backtap.Hop_sender.on_feedback sender ~hop_seq:2);
  Engine.Sim.run sim;
  (* Access-link serializations: A [0,520], B#1 [520,1040] (stale),
     B#2 [1040,1560] (stale), C#1 [1560,2080].  C's ack must fire at
     C's own wire departure — not at 520 ms when stale B#1 leaves. *)
  (match !ack_times with
  | [ at ] -> Alcotest.check time "ack at C's own wire departure" (Engine.Time.ms 1560) at
  | l -> Alcotest.fail (Printf.sprintf "expected one ack, got %d" (List.length l)));
  Alcotest.(check int) "spurious retransmits only (B once, C once)" 2
    (Backtap.Hop_sender.retransmissions sender);
  Alcotest.(check int) "no feedback counted spurious" 0
    (Backtap.Hop_sender.spurious_feedback sender);
  Alcotest.(check bool) "sender drained" true (Backtap.Hop_sender.idle sender);
  Alcotest.(check bool) "sender alive" true (not (Backtap.Hop_sender.aborted sender))

(* ------------------------------------------------------------------ *)
(* End-to-end transfer over a full circuit *)

let mk_transfer ?(bytes = Engine.Units.kib 200) ?(strategy = Circuitstart.Controller.Circuit_start)
    ?trace () =
  let sim, _, leaves, _, bts = mk_net 5 in
  let relays =
    List.init 3 (fun i ->
        Tor_model.Relay_info.make
          ~nickname:(Printf.sprintf "r%d" i)
          ~node:leaves.(i + 1)
          ~bandwidth:(Engine.Units.Rate.mbit 10) ~latency:(Engine.Time.ms 5) ())
  in
  let circuit =
    Tor_model.Circuit.make ~id:circ ~client:leaves.(0) ~relays ~server:leaves.(4)
  in
  let node_of n =
    let rec find i = if Netsim.Node_id.equal leaves.(i) n then bts.(i) else find (i + 1) in
    find 0
  in
  let d =
    Backtap.Transfer.deploy ~node_of ~circuit ~bytes ~strategy ?trace ()
  in
  (sim, d)

let test_transfer_completes () =
  let sim, d = mk_transfer () in
  Backtap.Transfer.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  Alcotest.(check bool) "complete" true (Backtap.Transfer.complete d);
  Alcotest.(check int) "all bytes" (Engine.Units.kib 200)
    (Tor_model.Stream.Sink.received_bytes (Backtap.Transfer.sink d));
  Alcotest.(check int) "exactly once" 0
    (Tor_model.Stream.Sink.duplicates (Backtap.Transfer.sink d));
  Alcotest.(check bool) "ttlb" true (Backtap.Transfer.time_to_last_byte d <> None)

let test_transfer_start_twice () =
  let sim, d = mk_transfer () in
  Backtap.Transfer.start d;
  Alcotest.check_raises "double start"
    (Invalid_argument "Backtap.Transfer.start: already started") (fun () ->
      Backtap.Transfer.start d);
  Engine.Sim.run sim ~until:(Engine.Time.s 60)

let test_transfer_senders_exposed () =
  let sim, d = mk_transfer () in
  Backtap.Transfer.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  Alcotest.(check int) "one sender per hop" 4 (List.length (Backtap.Transfer.senders d));
  Alcotest.(check bool) "position 0 exists" true (Backtap.Transfer.sender_at d 0 <> None);
  Alcotest.(check bool) "position 4 is the server" true
    (Backtap.Transfer.sender_at d 4 = None);
  (* Window invariant at every hop after the run. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "inflight <= cwnd" true
        (Backtap.Hop_sender.inflight s <= Backtap.Hop_sender.cwnd s))
    (Backtap.Transfer.senders d)

let test_transfer_trace_recorded () =
  let trace = Engine.Trace.create () in
  let sim, d = mk_transfer ~trace:(trace, "x") () in
  Backtap.Transfer.trace_cwnd d (trace, "x");
  Backtap.Transfer.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  List.iter
    (fun pos ->
      let key = Printf.sprintf "x/cwnd/%d" pos in
      match Engine.Trace.find trace key with
      | Some ts -> Alcotest.(check bool) (key ^ " nonempty") true (Array.length (Engine.Timeseries.points ts) > 0)
      | None -> Alcotest.fail (key ^ " missing"))
    [ 0; 1; 2; 3 ]

let test_transfer_on_complete_fires_once () =
  let fired = ref 0 in
  let sim, _, leaves, _, bts = mk_net 5 in
  let relays =
    List.init 3 (fun i ->
        Tor_model.Relay_info.make ~nickname:(Printf.sprintf "r%d" i) ~node:leaves.(i + 1)
          ~bandwidth:(Engine.Units.Rate.mbit 10) ~latency:(Engine.Time.ms 5) ())
  in
  let circuit =
    Tor_model.Circuit.make ~id:circ ~client:leaves.(0) ~relays ~server:leaves.(4)
  in
  let node_of n =
    let rec find i = if Netsim.Node_id.equal leaves.(i) n then bts.(i) else find (i + 1) in
    find 0
  in
  let d =
    Backtap.Transfer.deploy ~node_of ~circuit ~bytes:(Engine.Units.kib 50)
      ~strategy:Circuitstart.Controller.Circuit_start
      ~on_complete:(fun _ -> incr fired)
      ()
  in
  Backtap.Transfer.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  Alcotest.(check int) "once" 1 !fired

let test_transfer_resume_offset () =
  let bytes = Engine.Units.kib 200 in
  let offset = 100 * 498 in
  let sim, _, leaves, _, bts = mk_net 5 in
  let relays =
    List.init 3 (fun i ->
        Tor_model.Relay_info.make ~nickname:(Printf.sprintf "r%d" i) ~node:leaves.(i + 1)
          ~bandwidth:(Engine.Units.Rate.mbit 10) ~latency:(Engine.Time.ms 5) ())
  in
  let circuit =
    Tor_model.Circuit.make ~id:circ ~client:leaves.(0) ~relays ~server:leaves.(4)
  in
  let node_of n =
    let rec find i = if Netsim.Node_id.equal leaves.(i) n then bts.(i) else find (i + 1) in
    find 0
  in
  let d =
    Backtap.Transfer.deploy ~node_of ~circuit ~bytes
      ~strategy:Circuitstart.Controller.Circuit_start ~offset ()
  in
  Alcotest.(check int) "offset counted up front" offset
    (Backtap.Transfer.delivered_bytes d);
  Backtap.Transfer.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  Alcotest.(check bool) "complete" true (Backtap.Transfer.complete d);
  Alcotest.(check int) "every byte accounted" bytes (Backtap.Transfer.delivered_bytes d);
  Alcotest.(check int) "no duplicates" 0
    (Tor_model.Stream.Sink.duplicates (Backtap.Transfer.sink d));
  (* Only the un-delivered suffix crossed the wire. *)
  let total_cells = (bytes + 497) / 498 in
  Alcotest.(check int) "only the suffix was sent" (total_cells - 100)
    (Tor_model.Stream.Sink.cells_received (Backtap.Transfer.sink d))

let test_transfer_offset_validation () =
  let sim, _, leaves, _, bts = mk_net 5 in
  let relays =
    List.init 3 (fun i ->
        Tor_model.Relay_info.make ~nickname:(Printf.sprintf "r%d" i) ~node:leaves.(i + 1)
          ~bandwidth:(Engine.Units.Rate.mbit 10) ~latency:(Engine.Time.ms 5) ())
  in
  let circuit =
    Tor_model.Circuit.make ~id:circ ~client:leaves.(0) ~relays ~server:leaves.(4)
  in
  let node_of n =
    let rec find i = if Netsim.Node_id.equal leaves.(i) n then bts.(i) else find (i + 1) in
    find 0
  in
  ignore sim;
  (match
     Backtap.Transfer.deploy ~node_of ~circuit ~bytes:(Engine.Units.kib 10)
       ~strategy:Circuitstart.Controller.Circuit_start ~offset:100 ()
   with
  | (_ : Backtap.Transfer.t) -> Alcotest.fail "misaligned offset accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("alignment rejected: " ^ msg) true
        (String.ends_with ~suffix:"start_byte must be cell-aligned" msg));
  Alcotest.check_raises "offset for unknown stream"
    (Invalid_argument "Backtap.Transfer.deploy_streams: offset for unknown stream")
    (fun () ->
      ignore
        (Backtap.Transfer.deploy_streams ~node_of ~circuit
           ~streams:[ (0, Engine.Units.kib 10) ]
           ~strategy:Circuitstart.Controller.Circuit_start
           ~offsets:[ (7, 498) ] ()))

(* Kill the middle relay mid-transfer: on_fail must fire exactly once,
   on_complete never, and the delivered prefix must be a safe (cell
   aligned) resume offset. *)
let test_transfer_callbacks_exclusive () =
  let bytes = Engine.Units.kib 200 in
  let sim, _, leaves, sbs, bts = mk_net 5 in
  let relays =
    List.init 3 (fun i ->
        Tor_model.Relay_info.make ~nickname:(Printf.sprintf "r%d" i) ~node:leaves.(i + 1)
          ~bandwidth:(Engine.Units.Rate.mbit 10) ~latency:(Engine.Time.ms 5) ())
  in
  let circuit =
    Tor_model.Circuit.make ~id:circ ~client:leaves.(0) ~relays ~server:leaves.(4)
  in
  let node_of n =
    let rec find i = if Netsim.Node_id.equal leaves.(i) n then bts.(i) else find (i + 1) in
    find 0
  in
  let completes = ref 0 and fails = ref 0 in
  let d =
    Backtap.Transfer.deploy ~node_of ~circuit ~bytes
      ~strategy:Circuitstart.Controller.Circuit_start
      ~rto_min:(Engine.Time.ms 100) ~rto_initial:(Engine.Time.ms 200) ~max_retries:3
      ~on_complete:(fun _ -> incr completes)
      ~on_fail:(fun _ -> incr fails)
      ()
  in
  ignore
    (Engine.Sim.schedule_after sim (Engine.Time.ms 100) (fun () ->
         Tor_model.Switchboard.set_down sbs.(2) true)
      : Engine.Sim.handle);
  Backtap.Transfer.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  Alcotest.(check int) "on_fail fired once" 1 !fails;
  Alcotest.(check int) "on_complete never fired" 0 !completes;
  Alcotest.(check bool) "terminal state is Failed" true
    (Backtap.Transfer.state d = Backtap.Transfer.Failed);
  let delivered = Backtap.Transfer.delivered_bytes d in
  Alcotest.(check bool)
    (Printf.sprintf "partial delivery (%d of %d)" delivered bytes)
    true
    (delivered > 0 && delivered < bytes);
  Alcotest.(check int) "prefix is cell-aligned" 0 (delivered mod 498)

let test_transfer_cell_latency () =
  let sim, d = mk_transfer () in
  Backtap.Transfer.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  let lat = Backtap.Transfer.cell_latency_stats d in
  let cells = Tor_model.Stream.Sink.cells_received (Backtap.Transfer.sink d) in
  Alcotest.(check int) "one sample per delivered cell" cells
    (Engine.Stats.Online.count lat);
  (* Minimum possible: 4 hops x (5+5) ms one-way = 40 ms propagation. *)
  Alcotest.(check bool) "min >= one-way propagation" true
    (Engine.Stats.Online.min lat >= 0.040);
  Alcotest.(check bool) "mean below a second" true (Engine.Stats.Online.mean lat < 1.)

let test_multi_stream_transfer () =
  let sim, _, leaves, _, bts = mk_net 5 in
  let relays =
    List.init 3 (fun i ->
        Tor_model.Relay_info.make ~nickname:(Printf.sprintf "r%d" i) ~node:leaves.(i + 1)
          ~bandwidth:(Engine.Units.Rate.mbit 10) ~latency:(Engine.Time.ms 5) ())
  in
  let circuit =
    Tor_model.Circuit.make ~id:circ ~client:leaves.(0) ~relays ~server:leaves.(4)
  in
  let node_of n =
    let rec find i = if Netsim.Node_id.equal leaves.(i) n then bts.(i) else find (i + 1) in
    find 0
  in
  let fired = ref 0 in
  let d =
    Backtap.Transfer.deploy_streams ~node_of ~circuit
      ~streams:[ (1, Engine.Units.kib 100); (2, Engine.Units.kib 100); (3, Engine.Units.kib 25) ]
      ~strategy:Circuitstart.Controller.Circuit_start
      ~on_complete:(fun _ -> incr fired)
      ()
  in
  Backtap.Transfer.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  Alcotest.(check bool) "all streams complete" true (Backtap.Transfer.complete d);
  Alcotest.(check int) "completion fires once, at the end" 1 !fired;
  Alcotest.(check (list int)) "stream ids" [ 1; 2; 3 ] (Backtap.Transfer.stream_ids d);
  (* Per-stream byte accounting. *)
  List.iter
    (fun (id, kib) ->
      match Backtap.Transfer.stream_sink d id with
      | Some sink ->
          Alcotest.(check int)
            (Printf.sprintf "stream %d bytes" id)
            (Engine.Units.kib kib)
            (Tor_model.Stream.Sink.received_bytes sink)
      | None -> Alcotest.fail "missing stream sink")
    [ (1, 100); (2, 100); (3, 25) ];
  (* Fairness of the round-robin interleave: the small stream finishes
     first; the two equal streams finish within 20%% of each other. *)
  let at id = Option.get (Backtap.Transfer.stream_completed_at d id) in
  Alcotest.(check bool) "small stream first" true
    Engine.Time.(at 3 < at 1 && at 3 < at 2);
  let t1 = Engine.Time.to_sec_f (at 1) and t2 = Engine.Time.to_sec_f (at 2) in
  Alcotest.(check bool)
    (Printf.sprintf "equal streams finish together (%.3f vs %.3f)" t1 t2)
    true
    (Float.abs (t1 -. t2) /. Float.max t1 t2 < 0.2);
  (* completed_at = the later of the two big streams. *)
  Alcotest.(check bool) "completed_at is the max" true
    (match Backtap.Transfer.completed_at d with
    | Some c -> Engine.Time.equal c (Engine.Time.max (at 1) (at 2))
    | None -> false)

let test_multi_stream_validation () =
  let _, _, leaves, _, bts = mk_net 5 in
  let relays =
    List.init 3 (fun i ->
        Tor_model.Relay_info.make ~nickname:(Printf.sprintf "r%d" i) ~node:leaves.(i + 1)
          ~bandwidth:(Engine.Units.Rate.mbit 10) ~latency:(Engine.Time.ms 5) ())
  in
  let circuit =
    Tor_model.Circuit.make ~id:circ ~client:leaves.(0) ~relays ~server:leaves.(4)
  in
  let node_of n =
    let rec find i = if Netsim.Node_id.equal leaves.(i) n then bts.(i) else find (i + 1) in
    find 0
  in
  Alcotest.check_raises "empty streams"
    (Invalid_argument "Backtap.Transfer.deploy_streams: no streams") (fun () ->
      ignore
        (Backtap.Transfer.deploy_streams ~node_of ~circuit ~streams:[]
           ~strategy:Circuitstart.Controller.Circuit_start ()));
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Backtap.Transfer.deploy_streams: duplicate stream id") (fun () ->
      ignore
        (Backtap.Transfer.deploy_streams ~node_of ~circuit
           ~streams:[ (1, 100); (1, 100) ]
           ~strategy:Circuitstart.Controller.Circuit_start ()))

let test_transfer_teardown () =
  let sim, d = mk_transfer () in
  Backtap.Transfer.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  Backtap.Transfer.teardown d;
  Alcotest.(check bool) "was complete" true (Backtap.Transfer.complete d)

let test_transfer_with_loss () =
  (* Bounded queues across the star: drops occur, reliability recovers,
     the sink still gets every byte exactly once. *)
  let sim, _, leaves, _, bts = mk_net ~queue:(Netsim.Nqueue.packets 12) 5 in
  let relays =
    List.init 3 (fun i ->
        Tor_model.Relay_info.make ~nickname:(Printf.sprintf "r%d" i) ~node:leaves.(i + 1)
          ~bandwidth:(Engine.Units.Rate.mbit 10) ~latency:(Engine.Time.ms 5) ())
  in
  let circuit =
    Tor_model.Circuit.make ~id:circ ~client:leaves.(0) ~relays ~server:leaves.(4)
  in
  let node_of n =
    let rec find i = if Netsim.Node_id.equal leaves.(i) n then bts.(i) else find (i + 1) in
    find 0
  in
  let d =
    Backtap.Transfer.deploy ~node_of ~circuit ~bytes:(Engine.Units.kib 100)
      ~strategy:Circuitstart.Controller.Circuit_start ()
  in
  Backtap.Transfer.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 120);
  Alcotest.(check bool) "complete despite loss" true (Backtap.Transfer.complete d);
  Alcotest.(check int) "all bytes" (Engine.Units.kib 100)
    (Tor_model.Stream.Sink.received_bytes (Backtap.Transfer.sink d))

let () =
  Alcotest.run "backtap"
    [
      ( "wire",
        [
          Alcotest.test_case "sizes" `Quick test_wire_sizes;
        ] );
      ( "node",
        [
          Alcotest.test_case "dispatch" `Quick test_node_dispatch;
          Alcotest.test_case "orphans" `Quick test_node_orphans;
          Alcotest.test_case "double register" `Quick test_node_double_register;
        ] );
      ( "hop_sender",
        [
          Alcotest.test_case "window gating" `Quick test_hop_sender_window_gating;
          Alcotest.test_case "ack at wire departure" `Quick test_hop_sender_ack_at_wire;
          Alcotest.test_case "retransmission" `Quick test_hop_sender_retransmission;
          Alcotest.test_case "spurious feedback" `Quick test_hop_sender_spurious_feedback;
          Alcotest.test_case "backoff and trip" `Quick test_hop_sender_backoff_and_trip;
          Alcotest.test_case "karn's rule" `Quick test_hop_sender_karn_rule;
          Alcotest.test_case "stale transmit after recycle" `Quick
            test_hop_sender_stale_transmit_after_recycle;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "completes" `Quick test_transfer_completes;
          Alcotest.test_case "double start" `Quick test_transfer_start_twice;
          Alcotest.test_case "senders exposed" `Quick test_transfer_senders_exposed;
          Alcotest.test_case "trace recorded" `Quick test_transfer_trace_recorded;
          Alcotest.test_case "on_complete once" `Quick test_transfer_on_complete_fires_once;
          Alcotest.test_case "resume offset" `Quick test_transfer_resume_offset;
          Alcotest.test_case "offset validation" `Quick test_transfer_offset_validation;
          Alcotest.test_case "fail and complete exclusive" `Quick
            test_transfer_callbacks_exclusive;
          Alcotest.test_case "cell latency" `Quick test_transfer_cell_latency;
          Alcotest.test_case "multi-stream" `Quick test_multi_stream_transfer;
          Alcotest.test_case "multi-stream validation" `Quick
            test_multi_stream_validation;
          Alcotest.test_case "teardown" `Quick test_transfer_teardown;
          Alcotest.test_case "completes with loss" `Quick test_transfer_with_loss;
        ] );
    ]
