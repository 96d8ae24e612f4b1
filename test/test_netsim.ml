(* Unit and property tests for the network substrate. *)

let time = Alcotest.testable Engine.Time.pp Engine.Time.equal

let mk_packet ids ~src ~dst ~size =
  Netsim.Packet.make ids ~src:(Netsim.Node_id.of_int src)
    ~dst:(Netsim.Node_id.of_int dst) ~size ~now:Engine.Time.zero
    (Netsim.Payload.Raw "x")

(* ------------------------------------------------------------------ *)
(* Node ids and packets *)

let test_node_id () =
  let a = Netsim.Node_id.of_int 3 in
  Alcotest.(check int) "roundtrip" 3 (Netsim.Node_id.to_int a);
  Alcotest.(check bool) "equal" true (Netsim.Node_id.equal a (Netsim.Node_id.of_int 3));
  Alcotest.check_raises "negative" (Invalid_argument "Node_id.of_int: negative id")
    (fun () -> ignore (Netsim.Node_id.of_int (-1)))

let test_packet_ids_dense () =
  let ids = Netsim.Packet.fresh_id_state () in
  let p1 = mk_packet ids ~src:0 ~dst:1 ~size:10 in
  let p2 = mk_packet ids ~src:0 ~dst:1 ~size:10 in
  Alcotest.(check int) "first id" 0 p1.Netsim.Packet.id;
  Alcotest.(check int) "second id" 1 p2.Netsim.Packet.id;
  Alcotest.check_raises "size" (Invalid_argument "Packet.make: size must be positive")
    (fun () -> ignore (mk_packet ids ~src:0 ~dst:1 ~size:0))

(* ------------------------------------------------------------------ *)
(* Nqueue *)

(* A packet with no transmit callback, and the head packet if any. *)
let enqueue q p = Netsim.Nqueue.push q p None
let dequeue q = if Netsim.Nqueue.is_empty q then None else Some (Netsim.Nqueue.take q)

let test_nqueue_fifo () =
  let ids = Netsim.Packet.fresh_id_state () in
  let q = Netsim.Nqueue.create Netsim.Nqueue.unbounded in
  let ps = List.init 5 (fun _ -> mk_packet ids ~src:0 ~dst:1 ~size:10) in
  List.iter (fun p -> ignore (enqueue q p)) ps;
  let out = List.init 5 (fun _ -> (Option.get (dequeue q)).Netsim.Packet.id) in
  Alcotest.(check (list int)) "fifo order" [ 0; 1; 2; 3; 4 ] out;
  Alcotest.(check bool) "empty after drain" true (Netsim.Nqueue.is_empty q)

let test_nqueue_packet_capacity () =
  let ids = Netsim.Packet.fresh_id_state () in
  let q = Netsim.Nqueue.create (Netsim.Nqueue.packets 2) in
  Alcotest.(check bool) "1 fits" true (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:10));
  Alcotest.(check bool) "2 fits" true (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:10));
  Alcotest.(check bool) "3 dropped" false (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:10));
  Alcotest.(check int) "drops" 1 (Netsim.Nqueue.drops q);
  Alcotest.(check int) "dropped bytes" 10 (Netsim.Nqueue.dropped_bytes q);
  ignore (dequeue q);
  Alcotest.(check bool) "fits after dequeue" true
    (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:10))

let test_nqueue_byte_capacity () =
  let ids = Netsim.Packet.fresh_id_state () in
  let q = Netsim.Nqueue.create { Netsim.Nqueue.max_packets = None; max_bytes = Some 25 } in
  Alcotest.(check bool) "10B fits" true (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:10));
  Alcotest.(check bool) "10B fits" true (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:10));
  Alcotest.(check bool) "10B dropped (would exceed)" false
    (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:10));
  Alcotest.(check bool) "5B fits exactly" true
    (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:5));
  Alcotest.(check int) "byte length" 25 (Netsim.Nqueue.byte_length q);
  Alcotest.(check int) "hwm" 25 (Netsim.Nqueue.high_watermark_bytes q)

(* A packet larger than max_bytes can never fit, even into an empty
   queue: it must be tail-dropped (and counted), not wedge the queue. *)
let test_nqueue_oversized_packet () =
  let ids = Netsim.Packet.fresh_id_state () in
  let q = Netsim.Nqueue.create { Netsim.Nqueue.max_packets = None; max_bytes = Some 10 } in
  Alcotest.(check bool) "oversized dropped on empty queue" false
    (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:11));
  Alcotest.(check bool) "still empty" true (Netsim.Nqueue.is_empty q);
  Alcotest.(check int) "drop counted" 1 (Netsim.Nqueue.drops q);
  Alcotest.(check int) "dropped bytes counted" 11 (Netsim.Nqueue.dropped_bytes q);
  Alcotest.(check int) "hwm untouched" 0 (Netsim.Nqueue.high_watermark_bytes q);
  Alcotest.(check bool) "a fitting packet still goes through" true
    (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:10))

(* Packet and byte limits in force together: drops / dropped_bytes must
   attribute each rejection correctly whichever limit it tripped. *)
let test_nqueue_mixed_limits () =
  let ids = Netsim.Packet.fresh_id_state () in
  let q =
    Netsim.Nqueue.create
      { Netsim.Nqueue.max_packets = Some 3; max_bytes = Some 25 }
  in
  Alcotest.(check bool) "10B fits" true
    (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:10));
  Alcotest.(check bool) "10B fits" true
    (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:10));
  (* Byte limit trips first: 2 packets < 3, but 20 + 10 > 25. *)
  Alcotest.(check bool) "byte limit trips" false
    (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:10));
  Alcotest.(check bool) "small packet still fits" true
    (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:2));
  (* Now the packet limit trips: 3 packets queued, bytes would fit. *)
  Alcotest.(check bool) "packet limit trips" false
    (enqueue q (mk_packet ids ~src:0 ~dst:1 ~size:1));
  Alcotest.(check int) "both drops counted" 2 (Netsim.Nqueue.drops q);
  Alcotest.(check int) "dropped bytes sum both causes" 11
    (Netsim.Nqueue.dropped_bytes q);
  Alcotest.(check int) "survivors untouched" 3 (Netsim.Nqueue.length q);
  Alcotest.(check int) "byte length" 22 (Netsim.Nqueue.byte_length q)

let prop_nqueue_conservation =
  QCheck2.Test.make ~name:"queue conserves packets (enqueued = dequeued + remaining + drops)"
    QCheck2.Gen.(list_size (int_range 1 100) (int_range 1 100))
    (fun sizes ->
      let ids = Netsim.Packet.fresh_id_state () in
      let q = Netsim.Nqueue.create (Netsim.Nqueue.packets 10) in
      let accepted = ref 0 in
      List.iter
        (fun size ->
          if enqueue q (mk_packet ids ~src:0 ~dst:1 ~size) then incr accepted)
        sizes;
      let drained = ref 0 in
      let rec drain () =
        match dequeue q with
        | Some _ -> incr drained; drain ()
        | None -> ()
      in
      drain ();
      !accepted = !drained
      && !accepted + Netsim.Nqueue.drops q = List.length sizes
      && Netsim.Nqueue.enqueued_total q = !accepted)

(* ------------------------------------------------------------------ *)
(* Link *)

let mk_link ?queue ?(rate = Engine.Units.Rate.mbit 8) ?(delay = Engine.Time.ms 10) sim =
  Netsim.Link.create sim ~src:(Netsim.Node_id.of_int 0) ~dst:(Netsim.Node_id.of_int 1)
    ~rate ~delay ?queue ()

let test_link_delivery_latency () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  let ids = Netsim.Packet.fresh_id_state () in
  let arrived = ref None in
  Netsim.Link.set_receiver link (fun _ -> arrived := Some (Engine.Sim.now sim));
  (* 1000 bytes at 8 Mbit/s = 1 ms serialization + 10 ms propagation. *)
  Netsim.Link.send link (mk_packet ids ~src:0 ~dst:1 ~size:1000);
  Engine.Sim.run sim;
  Alcotest.(check (option time)) "latency = tx + prop" (Some (Engine.Time.ms 11)) !arrived;
  Alcotest.(check int) "delivered" 1 (Netsim.Link.packets_delivered link);
  Alcotest.(check int) "bytes" 1000 (Netsim.Link.bytes_delivered link)

let test_link_serialization_spacing () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  let ids = Netsim.Packet.fresh_id_state () in
  let arrivals = ref [] in
  Netsim.Link.set_receiver link (fun p ->
      arrivals := (p.Netsim.Packet.id, Engine.Sim.now sim) :: !arrivals);
  Netsim.Link.send link (mk_packet ids ~src:0 ~dst:1 ~size:1000);
  Netsim.Link.send link (mk_packet ids ~src:0 ~dst:1 ~size:1000);
  Engine.Sim.run sim;
  match List.rev !arrivals with
  | [ (0, t0); (1, t1) ] ->
      Alcotest.check time "first at 11ms" (Engine.Time.ms 11) t0;
      Alcotest.check time "second one serialization later" (Engine.Time.ms 12) t1
  | _ -> Alcotest.fail "expected two arrivals in order"

let test_link_busy_and_queue () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  let ids = Netsim.Packet.fresh_id_state () in
  Netsim.Link.set_receiver link (fun _ -> ());
  Netsim.Link.send link (mk_packet ids ~src:0 ~dst:1 ~size:1000);
  Netsim.Link.send link (mk_packet ids ~src:0 ~dst:1 ~size:1000);
  Alcotest.(check bool) "busy" true (Netsim.Link.busy link);
  Alcotest.(check int) "queued" 1 (Netsim.Link.queue_length link);
  Engine.Sim.run sim;
  Alcotest.(check bool) "idle after" false (Netsim.Link.busy link);
  Alcotest.(check int) "queue empty" 0 (Netsim.Link.queue_length link)

let test_link_drop () =
  let sim = Engine.Sim.create () in
  let link = mk_link ~queue:(Netsim.Nqueue.packets 1) sim in
  let ids = Netsim.Packet.fresh_id_state () in
  let delivered = ref 0 in
  Netsim.Link.set_receiver link (fun _ -> incr delivered);
  for _ = 1 to 4 do
    Netsim.Link.send link (mk_packet ids ~src:0 ~dst:1 ~size:1000)
  done;
  Engine.Sim.run sim;
  (* One on the wire + one queued; two dropped. *)
  Alcotest.(check int) "delivered" 2 !delivered;
  Alcotest.(check int) "drops" 2 (Netsim.Link.queue_drops link)

let test_link_blackhole () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  let ids = Netsim.Packet.fresh_id_state () in
  Netsim.Link.send link (mk_packet ids ~src:0 ~dst:1 ~size:100);
  Engine.Sim.run sim;
  Alcotest.(check int) "blackholed" 1 (Netsim.Link.packets_blackholed link)

let test_link_on_transmit () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  let ids = Netsim.Packet.fresh_id_state () in
  Netsim.Link.set_receiver link (fun _ -> ());
  let tx = ref [] in
  let send () =
    let p = mk_packet ids ~src:0 ~dst:1 ~size:1000 in
    Netsim.Link.send link
      ~on_transmit:(fun id -> tx := (id, Engine.Sim.now sim) :: !tx)
      p;
    p.Netsim.Packet.id
  in
  let id0 = send () in
  let id1 = send () in
  Engine.Sim.run sim;
  (* First serializes immediately; second when the first's tx ends
     (1 ms); each firing carries its own packet's id. *)
  Alcotest.(check (list (pair int time)))
    "transmit ids and instants"
    [ (id0, Engine.Time.zero); (id1, Engine.Time.ms 1) ]
    (List.rev !tx)

let test_link_on_transmit_not_fired_on_drop () =
  let sim = Engine.Sim.create () in
  let link = mk_link ~queue:(Netsim.Nqueue.packets 1) sim in
  let ids = Netsim.Packet.fresh_id_state () in
  Netsim.Link.set_receiver link (fun _ -> ());
  let fired = ref 0 in
  for _ = 1 to 4 do
    Netsim.Link.send link ~on_transmit:(fun _ -> incr fired)
      (mk_packet ids ~src:0 ~dst:1 ~size:1000)
  done;
  Engine.Sim.run sim;
  Alcotest.(check int) "fires only for transmitted" 2 !fired

let test_link_set_rate () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  let ids = Netsim.Packet.fresh_id_state () in
  let arrivals = ref [] in
  Netsim.Link.set_receiver link (fun _ -> arrivals := Engine.Sim.now sim :: !arrivals);
  Netsim.Link.send link (mk_packet ids ~src:0 ~dst:1 ~size:1000);
  Engine.Sim.run sim;
  Netsim.Link.set_rate link (Engine.Units.Rate.mbit 16);
  Netsim.Link.send link (mk_packet ids ~src:0 ~dst:1 ~size:1000);
  Engine.Sim.run sim;
  match List.rev !arrivals with
  | [ t0; t1 ] ->
      Alcotest.check time "old rate" (Engine.Time.ms 11) t0;
      (* Second sent at 11 ms: 0.5 ms serialization at the doubled rate. *)
      Alcotest.check time "new rate" (Engine.Time.of_ms_f 21.5) t1
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_utilization () =
  let sim = Engine.Sim.create () in
  let link = mk_link sim in
  let ids = Netsim.Packet.fresh_id_state () in
  Netsim.Link.set_receiver link (fun _ -> ());
  Netsim.Link.send link (mk_packet ids ~src:0 ~dst:1 ~size:1000);
  Engine.Sim.run sim;
  (* 1 ms busy out of 10 ms horizon. *)
  Alcotest.(check (float 1e-9)) "10%" 0.1
    (Netsim.Link.utilization link (Engine.Time.ms 10))

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology_build () =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.add_node topo ~name:"a" in
  let b = Netsim.Topology.add_node topo ~name:"b" in
  Netsim.Topology.connect topo a b ~rate:(Engine.Units.Rate.mbit 1)
    ~delay:(Engine.Time.ms 1) ();
  Alcotest.(check int) "node count" 2 (Netsim.Topology.node_count topo);
  Alcotest.(check string) "name" "a" (Netsim.Topology.name topo a);
  Alcotest.(check bool) "a->b link" true (Netsim.Topology.link topo a b <> None);
  Alcotest.(check bool) "b->a link" true (Netsim.Topology.link topo b a <> None);
  Alcotest.(check (list int)) "neighbors" [ Netsim.Node_id.to_int b ]
    (List.map Netsim.Node_id.to_int (Netsim.Topology.neighbors topo a));
  Alcotest.(check int) "links" 2 (Array.length (Netsim.Topology.links topo))

let test_topology_errors () =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.add_node topo ~name:"a" in
  let b = Netsim.Topology.add_node topo ~name:"b" in
  Alcotest.check_raises "self loop" (Invalid_argument "Topology.connect: self-loop")
    (fun () ->
      Netsim.Topology.connect topo a a ~rate:(Engine.Units.Rate.mbit 1)
        ~delay:Engine.Time.zero ());
  Netsim.Topology.connect topo a b ~rate:(Engine.Units.Rate.mbit 1)
    ~delay:Engine.Time.zero ();
  Alcotest.(check bool) "double connect raises" true
    (try
       Netsim.Topology.connect topo a b ~rate:(Engine.Units.Rate.mbit 1)
         ~delay:Engine.Time.zero ();
       false
     with Invalid_argument _ -> true);
  (* A node with one out-link is read in place: a second read returns
     the same array.  A copy, when the storage has spare capacity, holds
     exactly the links. *)
  let first = Netsim.Topology.out_links topo a in
  Alcotest.(check int) "one out-link" 1 (Array.length first);
  Alcotest.(check bool) "read in place" true (Netsim.Topology.out_links topo a == first);
  let c = Netsim.Topology.add_node topo ~name:"c" in
  Netsim.Topology.connect topo a c ~rate:(Engine.Units.Rate.mbit 1) ~delay:Engine.Time.zero ();
  Alcotest.(check (list int)) "in connection order, no spare slots"
    [ Netsim.Node_id.to_int b; Netsim.Node_id.to_int c ]
    (Array.to_list
       (Array.map
          (fun l -> Netsim.Node_id.to_int (Netsim.Link.dst l))
          (Netsim.Topology.out_links topo a)));
  Alcotest.(check bool) "unknown node" true
    (try
       ignore (Netsim.Topology.out_links topo (Netsim.Node_id.of_int 7) : Netsim.Link.t array);
       false
     with Invalid_argument _ -> true)

(* A chain of nodes with uniform duplex links, wired with [connect]
   as the line world wires its circuit. *)
let line sim ~names ~rate ~delay =
  let topo = Netsim.Topology.create sim in
  let ids = List.map (fun name -> Netsim.Topology.add_node topo ~name) names in
  let rec wire = function
    | a :: (b :: _ as rest) ->
        Netsim.Topology.connect topo a b ~rate ~delay ();
        wire rest
    | [ _ ] | [] -> ()
  in
  wire ids;
  (topo, ids)

let test_topology_line () =
  let sim = Engine.Sim.create () in
  let topo, ids =
    line sim ~names:[ "a"; "b"; "c" ] ~rate:(Engine.Units.Rate.mbit 1)
      ~delay:(Engine.Time.ms 1)
  in
  Alcotest.(check int) "three nodes" 3 (Netsim.Topology.node_count topo);
  match ids with
  | [ a; b; c ] ->
      Alcotest.(check bool) "a-b" true (Netsim.Topology.link topo a b <> None);
      Alcotest.(check bool) "b-c" true (Netsim.Topology.link topo b c <> None);
      Alcotest.(check bool) "no a-c" true (Netsim.Topology.link topo a c = None)
  | _ -> Alcotest.fail "expected three ids"

let test_topology_star () =
  let sim = Engine.Sim.create () in
  let topo, hub, leaves =
    Netsim.Topology.star sim ~hub:"hub"
      ~leaves:
        [ ("l0", Engine.Units.Rate.mbit 1, Engine.Time.ms 1);
          ("l1", Engine.Units.Rate.mbit 2, Engine.Time.ms 2) ]
      ()
  in
  Alcotest.(check int) "nodes" 3 (Netsim.Topology.node_count topo);
  List.iter
    (fun leaf ->
      Alcotest.(check bool) "leaf-hub" true (Netsim.Topology.link topo leaf hub <> None))
    leaves;
  match leaves with
  | [ l0; l1 ] ->
      Alcotest.(check bool) "no leaf-leaf" true (Netsim.Topology.link topo l0 l1 = None)
  | _ -> Alcotest.fail "expected two leaves"

(* Two routers joined by one bottleneck link, [left] leaves on one and
   [right] leaves on the other, each leaf a (rate, delay) access link. *)
let dumbbell sim ~left ~right ~bottleneck_rate ~bottleneck_delay =
  let topo = Netsim.Topology.create sim in
  let router_l = Netsim.Topology.add_node topo ~name:"routerL" in
  let router_r = Netsim.Topology.add_node topo ~name:"routerR" in
  Netsim.Topology.connect topo router_l router_r ~rate:bottleneck_rate
    ~delay:bottleneck_delay ();
  let attach router (rate, delay) =
    let id = Netsim.Topology.add_node topo ~name:"leaf" in
    Netsim.Topology.connect topo id router ~rate ~delay ();
    id
  in
  let ls = List.map (attach router_l) left in
  let rs = List.map (attach router_r) right in
  (topo, ls, rs)

(* Links on the route from [a] to [b], or [None] when unreachable. *)
let hop_count net a b =
  Option.map (fun p -> List.length p - 1) (Netsim.Network.path net a b)

(* Summed one-way propagation delay of the links along [path], or
   [None] when [path] is. *)
let route_delay topo path =
  let rec sum acc = function
    | a :: (b :: _ as rest) -> (
        match Netsim.Topology.link topo a b with
        | Some l -> sum (Engine.Time.add acc (Netsim.Link.delay l)) rest
        | None -> Alcotest.fail "route crosses a missing link")
    | [ _ ] | [] -> acc
  in
  Option.map (sum Engine.Time.zero) path

let test_topology_dumbbell () =
  let sim = Engine.Sim.create () in
  let fast = Engine.Units.Rate.mbit 10 and d = Engine.Time.ms 2 in
  let topo, ls, rs =
    dumbbell sim ~left:[ (fast, d); (fast, d) ] ~right:[ (fast, d) ]
      ~bottleneck_rate:(Engine.Units.Rate.mbit 1)
      ~bottleneck_delay:(Engine.Time.ms 20)
  in
  Alcotest.(check int) "2 routers + 3 leaves" 5 (Netsim.Topology.node_count topo);
  let net = Netsim.Network.create topo in
  match (ls, rs) with
  | [ a; _ ], [ x ] ->
      Alcotest.(check (option int)) "a to x crosses 3 links" (Some 3)
        (hop_count net a x);
      Alcotest.(check (option time)) "path delay" (Some (Engine.Time.ms 24))
        (route_delay topo (Netsim.Network.path net a x))
  | _ -> Alcotest.fail "unexpected shape"

(* ------------------------------------------------------------------ *)
(* Network *)

let star_net () =
  let sim = Engine.Sim.create () in
  let topo, hub, leaves =
    Netsim.Topology.star sim ~hub:"hub"
      ~leaves:
        (List.init 3 (fun i ->
             (Printf.sprintf "l%d" i, Engine.Units.Rate.mbit 8, Engine.Time.ms 5)))
      ()
  in
  (sim, topo, Netsim.Network.create topo, hub, leaves)

let test_network_routing () =
  let _, _, net, hub, leaves = star_net () in
  match leaves with
  | [ l0; l1; _ ] ->
      Alcotest.(check (option int)) "two hops leaf to leaf" (Some 2)
        (hop_count net l0 l1);
      Alcotest.(check (option (list int)))
        "path through hub"
        (Some [ Netsim.Node_id.to_int l0; Netsim.Node_id.to_int hub; Netsim.Node_id.to_int l1 ])
        (Option.map (List.map Netsim.Node_id.to_int) (Netsim.Network.path net l0 l1));
      Alcotest.(check (option time)) "path delay" (Some (Engine.Time.ms 10))
        (route_delay (Netsim.Network.topology net) (Netsim.Network.path net l0 l1))
  | _ -> Alcotest.fail "expected three leaves"

let test_network_delivery () =
  let sim, _, net, _, leaves = star_net () in
  match leaves with
  | [ l0; l1; _ ] ->
      let got = ref None in
      Netsim.Network.set_local_handler net l1 (fun p ->
          got := Some (p.Netsim.Packet.id, Engine.Sim.now sim));
      let p =
        Netsim.Network.make_packet net ~src:l0 ~dst:l1 ~size:1000 (Netsim.Payload.Raw "y")
      in
      Netsim.Network.send net p;
      Engine.Sim.run sim;
      (* 1 ms tx + 5 ms + forward (1 ms tx + 5 ms) = 12 ms. *)
      Alcotest.(check (option (pair int time)))
        "delivered via hub" (Some (0, Engine.Time.ms 12)) !got
  | _ -> Alcotest.fail "expected three leaves"

let test_network_undeliverable () =
  let sim, _, net, _, leaves = star_net () in
  match leaves with
  | [ l0; l1; _ ] ->
      let p =
        Netsim.Network.make_packet net ~src:l0 ~dst:l1 ~size:100 (Netsim.Payload.Raw "z")
      in
      Netsim.Network.send net p;
      Engine.Sim.run sim;
      Alcotest.(check int) "counted" 1 (Netsim.Network.undeliverable net)
  | _ -> Alcotest.fail "expected three leaves"

let test_network_loopback () =
  let sim, _, net, _, leaves = star_net () in
  match leaves with
  | l0 :: _ ->
      let got = ref false in
      Netsim.Network.set_local_handler net l0 (fun _ -> got := true);
      let p =
        Netsim.Network.make_packet net ~src:l0 ~dst:l0 ~size:100 (Netsim.Payload.Raw "w")
      in
      Netsim.Network.send net p;
      Engine.Sim.run sim;
      Alcotest.(check bool) "loopback delivered" true !got
  | _ -> Alcotest.fail "expected leaves"

let test_network_no_route () =
  (* Two disconnected nodes. *)
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.add_node topo ~name:"a" in
  let b = Netsim.Topology.add_node topo ~name:"b" in
  let net = Netsim.Network.create topo in
  Alcotest.(check (option int)) "no hop count" None (hop_count net a b);
  let p = Netsim.Network.make_packet net ~src:a ~dst:b ~size:10 (Netsim.Payload.Raw "q") in
  Alcotest.(check bool) "send raises" true
    (try
       Netsim.Network.send net p;
       false
     with Failure _ -> true)

let test_network_on_transmit_first_link_only () =
  let sim, _, net, _, leaves = star_net () in
  match leaves with
  | [ l0; l1; _ ] ->
      Netsim.Network.set_local_handler net l1 (fun _ -> ());
      let fired = ref 0 in
      let p =
        Netsim.Network.make_packet net ~src:l0 ~dst:l1 ~size:1000 (Netsim.Payload.Raw "t")
      in
      Netsim.Network.send net ~on_transmit:(fun _ -> incr fired) p;
      Engine.Sim.run sim;
      Alcotest.(check int) "once" 1 !fired
  | _ -> Alcotest.fail "expected three leaves"

(* ------------------------------------------------------------------ *)
(* CBR source *)

let test_cbr_rate () =
  let sim, _, net, _, leaves = star_net () in
  match leaves with
  | [ l0; l1; _ ] ->
      let received = ref 0 in
      Netsim.Network.set_local_handler net l1 (fun _ -> incr received);
      (* 512 B at 1 Mbit/s: one packet per 4.096 ms -> ~244 in 1 s. *)
      let cbr =
        Netsim.Cbr_source.start net ~src:l0 ~dst:l1 ~rate:(Engine.Units.Rate.mbit 1) ()
      in
      Engine.Sim.run sim ~until:(Engine.Time.s 1);
      Alcotest.(check bool)
        (Printf.sprintf "~244 packets in 1s (got %d)" !received)
        true
        (!received >= 240 && !received <= 245);
      Alcotest.(check int) "bytes accounted" (Netsim.Cbr_source.packets_sent cbr * 512)
        (Netsim.Cbr_source.bytes_sent cbr)
  | _ -> Alcotest.fail "expected three leaves"

(* ------------------------------------------------------------------ *)
(* Dense adjacency: frozen references *)

(* The routing the network used before its adjacency became arrays,
   frozen as a reference: Dijkstra from every source over an ordered
   set of (distance, node) pairs, scanning the topology's link table
   per edge.  Returns next_hop.(src).(dst): the neighbour to forward
   to, -1 if unreachable, src itself if dst = src. *)
let ref_compute_routes topo =
  let n = Netsim.Topology.node_count topo in
  let next_hop = Array.make_matrix n n (-1) in
  let nodes = Array.init n Netsim.Node_id.of_int in
  let dijkstra src =
    let dist = Array.make n max_int in
    let prev = Array.make n (-1) in
    let visited = Array.make n false in
    let src_i = Netsim.Node_id.to_int src in
    dist.(src_i) <- 0;
    let module Pq = Set.Make (struct
      type t = int * int

      let compare (d1, n1) (d2, n2) =
        match Int.compare d1 d2 with 0 -> Int.compare n1 n2 | c -> c
    end) in
    let pq = ref (Pq.singleton (0, src_i)) in
    while not (Pq.is_empty !pq) do
      let ((_, u) as min_elt) = Pq.min_elt !pq in
      pq := Pq.remove min_elt !pq;
      if not visited.(u) then begin
        visited.(u) <- true;
        List.iter
          (fun v_id ->
            let v = Netsim.Node_id.to_int v_id in
            match Netsim.Topology.link topo nodes.(u) v_id with
            | None -> ()
            | Some l ->
                let w = (Netsim.Link.delay l :> int) + 1 in
                let alt = dist.(u) + w in
                if alt < dist.(v) then begin
                  dist.(v) <- alt;
                  prev.(v) <- u;
                  pq := Pq.add (alt, v) !pq
                end)
          (Netsim.Topology.neighbors topo nodes.(u))
      end
    done;
    for dst = 0 to n - 1 do
      if dst = src_i then next_hop.(src_i).(dst) <- src_i
      else if prev.(dst) >= 0 then begin
        let hop = ref dst in
        while prev.(!hop) <> src_i && prev.(!hop) >= 0 do
          hop := prev.(!hop)
        done;
        if prev.(!hop) = src_i then next_hop.(src_i).(dst) <- !hop
      end
    done
  in
  Array.iter dijkstra nodes;
  next_hop

(* The network's next hop from [a] toward [b], read off its route. *)
let next_hop net a b =
  match Netsim.Network.path net (Netsim.Node_id.of_int a) (Netsim.Node_id.of_int b) with
  | None -> -1
  | Some [ x ] -> Netsim.Node_id.to_int x
  | Some (_ :: h :: _) -> Netsim.Node_id.to_int h
  | Some [] -> assert false

(* A random topology, built by replaying a list of connect calls (so the
   reference below can replay the same sequence).  Delays come from a
   three-value set, zero included, so equal-cost routes tie often. *)
type shape =
  | Graph of int * (int * int * int) list  (* nodes, (a, b, delay) *)
  | Star of int list  (* leaf delays *)
  | Line of int * int  (* nodes, delay *)
  | Dumbbell of int list * int list * int

let delay_of k = Engine.Time.ms k

let build_shape shape =
  let sim = Engine.Sim.create () in
  let rate = Engine.Units.Rate.mbit 8 in
  let leaves ds = List.mapi (fun i d -> (Printf.sprintf "l%d" i, rate, delay_of d)) ds in
  match shape with
  | Graph (n, edges) ->
      let topo = Netsim.Topology.create sim in
      let ids =
        Array.init n (fun i -> Netsim.Topology.add_node topo ~name:(string_of_int i))
      in
      List.iter
        (fun (a, b, d) ->
          let a = ids.(a mod n) and b = ids.(b mod n) in
          if (not (Netsim.Node_id.equal a b)) && Netsim.Topology.link topo a b = None then
            Netsim.Topology.connect topo a b ~rate ~delay:(delay_of d) ())
        edges;
      topo
  | Star ds ->
      let topo, _, _ = Netsim.Topology.star sim ~hub:"hub" ~leaves:(leaves ds) () in
      topo
  | Line (n, d) ->
      fst (line sim ~names:(List.init n string_of_int) ~rate ~delay:(delay_of d))
  | Dumbbell (l, r, d) ->
      let access ds = List.map (fun d -> (rate, delay_of d)) ds in
      let topo, _, _ =
        dumbbell sim ~left:(access l) ~right:(access r) ~bottleneck_rate:rate
          ~bottleneck_delay:(delay_of d)
      in
      topo

(* Shapes rich in single-link nodes, as [Graph] connect sequences: the
   leaves of random trees, the ends of pendant chains off a hub, both
   ends of a 2-node component, and isolated nodes. *)
let gen_single_link_graph =
  QCheck2.Gen.(
    let delay = int_range 0 2 in
    oneof
      [
        (* A random tree: node i hangs off an earlier node. *)
        (let* n = int_range 2 16 in
         let* links = list_repeat (n - 1) (pair (int_range 0 15) delay) in
         return
           (Graph (n, List.mapi (fun i (p, d) -> (p mod (i + 1), i + 1, d)) links)));
        (* A hub with leaves, some of them extended by a pendant chain. *)
        (let* chains = list_size (int_range 1 6) (pair (int_range 0 3) delay) in
         let next = ref 1 in
         let edges =
           List.concat_map
             (fun (len, d) ->
               let leaf = !next in
               incr next;
               let chain =
                 List.init len (fun k ->
                     let a = if k = 0 then leaf else !next - 1 in
                     let b = !next in
                     incr next;
                     (a, b, d))
               in
               (0, leaf, d) :: chain)
             chains
         in
         return (Graph (!next, edges)));
        (* 2-node components and isolated nodes beside a small star. *)
        (let* pairs = list_size (int_range 0 4) delay in
         let* leaves = list_size (int_range 0 4) delay in
         let* isolated = int_range 0 3 in
         let pair_edges = List.mapi (fun i d -> (2 * i, (2 * i) + 1, d)) pairs in
         let hub = 2 * List.length pairs in
         let star_edges = List.mapi (fun i d -> (hub, hub + 1 + i, d)) leaves in
         return
           (Graph (hub + 1 + List.length leaves + isolated, pair_edges @ star_edges)));
      ])

let gen_shape =
  QCheck2.Gen.(
    let delay = int_range 0 2 in
    oneof
      [
        (* Graph nodes beyond the edges' reach stay disconnected. *)
        (let* n = int_range 1 12 in
         let* edges =
           list_size (int_range 0 30) (triple (int_range 0 11) (int_range 0 11) delay)
         in
         return (Graph (n, edges)));
        map (fun ds -> Star ds) (list_size (int_range 1 12) delay);
        map2 (fun n d -> Line (n, d)) (int_range 2 10) delay;
        map3
          (fun l r d -> Dumbbell (l, r, d))
          (list_size (int_range 1 5) delay)
          (list_size (int_range 1 5) delay)
          delay;
        gen_single_link_graph;
      ])

(* Hop count and summed propagation delay of the reference route from
   [a] to [b], walked through the reference next-hop table. *)
let ref_route_metrics topo want a b =
  if want.(a).(b) < 0 then None
  else
    let rec walk x hops delay =
      if x = b then Some (hops, delay)
      else
        let y = want.(x).(b) in
        match Netsim.Topology.link topo (Netsim.Node_id.of_int x) (Netsim.Node_id.of_int y) with
        | None -> assert false
        | Some l -> walk y (hops + 1) (Engine.Time.add delay (Netsim.Link.delay l))
    in
    walk a 0 Engine.Time.zero

(* [Network.send] from [a] to [b]: [`Delivered] if the packet reached
   [b]'s handler, or the [Failure] message.  [arrived] is set by every
   node's handler to that node. *)
let send_outcome net arrived a b =
  let src = Netsim.Node_id.of_int a and dst = Netsim.Node_id.of_int b in
  arrived := -1;
  match
    Netsim.Network.send net
      (Netsim.Network.make_packet net ~src ~dst ~size:100 (Netsim.Payload.Raw ""))
  with
  | exception Failure msg -> `Failed msg
  | () ->
      Engine.Sim.run (Netsim.Network.sim net);
      if !arrived = b then `Delivered else `Lost

let prop_routes_match_reference =
  QCheck2.Test.make ~count:500
    ~name:"array Dijkstra gives the frozen set of next hops of the Set-based reference"
    gen_shape
    (fun shape ->
      let topo = build_shape shape in
      let want = ref_compute_routes topo in
      let net = Netsim.Network.create topo in
      let n = Netsim.Topology.node_count topo in
      let arrived = ref (-1) in
      for b = 0 to n - 1 do
        Netsim.Network.set_local_handler net (Netsim.Node_id.of_int b) (fun _ ->
            arrived := b)
      done;
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let ia = Netsim.Node_id.of_int a and ib = Netsim.Node_id.of_int b in
          let metrics = ref_route_metrics topo want a b in
          if next_hop net a b <> want.(a).(b) then ok := false;
          if hop_count net ia ib <> Option.map fst metrics then ok := false;
          if route_delay topo (Netsim.Network.path net ia ib) <> Option.map snd metrics
          then ok := false;
          let expected =
            if metrics <> None then `Delivered
            else
              `Failed (Format.asprintf "Network.send: no route from n%d to n%d" a b)
          in
          if send_outcome net arrived a b <> expected then ok := false
        done
      done;
      !ok)

(* [Topology.links] must enumerate in the order of the table of
   per-node assoc lists it replaced: fault schedules draw per link in
   that order.  The reference replays the same directed links, in the
   same order ([a->b] then [b->a] for each duplex connection), into
   that table.  [links] keeps its array, so the
   property also reads it halfway through the connections: a connection
   made after a call must show in the next one. *)
let ref_link_order connections =
  let adjacency = Hashtbl.create 64 in
  List.iter
    (fun (a, b) ->
      let r =
        match Hashtbl.find_opt adjacency a with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.add adjacency a r;
            r
      in
      r := !r @ [ (b, ()) ])
    connections;
  Hashtbl.fold
    (fun a r acc -> List.rev_append (List.map (fun (b, ()) -> (a, b)) !r) acc)
    adjacency []

(* Random connection sequences over up to 300 nodes — past the 128
   sources at which the old table resized — or a star's sequence. *)
let gen_connections =
  QCheck2.Gen.(
    oneof
      [
        (let* n = int_range 2 300 in
         let* pairs =
           list_size (int_range 0 400) (pair (int_range 0 299) (int_range 0 299))
         in
         return (n, List.map (fun (a, b) -> (a mod n, b mod n)) pairs));
        map
          (fun n -> (n, List.init (n - 1) (fun i -> (i + 1, 0))))
          (int_range 2 300);
      ])

let prop_links_order_matches_reference =
  QCheck2.Test.make ~count:200
    ~name:"links enumerate in the order of the old per-node table"
    gen_connections
    (fun (n, pairs) ->
      let sim = Engine.Sim.create () in
      let topo = Netsim.Topology.create sim in
      let ids =
        Array.init n (fun i -> Netsim.Topology.add_node topo ~name:(string_of_int i))
      in
      let made = ref [] in
      let connect a b =
        Netsim.Topology.connect topo ids.(a) ids.(b)
          ~rate:(Engine.Units.Rate.mbit 8) ~delay:Engine.Time.zero ();
        made := (b, a) :: (a, b) :: !made
      in
      let ends l =
        ( Netsim.Node_id.to_int (Netsim.Link.src l),
          Netsim.Node_id.to_int (Netsim.Link.dst l) )
      in
      let matches () =
        Array.to_list (Array.map ends (Netsim.Topology.links topo))
        = ref_link_order (List.rev !made)
      in
      let half = List.length pairs / 2 in
      let midway = ref true in
      List.iteri
        (fun i (a, b) ->
          if i = half then midway := matches ();
          if a <> b && Netsim.Topology.link topo ids.(a) ids.(b) = None then connect a b)
        pairs;
      !midway && matches ())

(* ------------------------------------------------------------------ *)
(* Ring queue and flight pool *)

(* Random pushes and takes against a FIFO model: order, byte count and
   the callback riding with each packet survive wrap-around and
   growth. *)
let prop_nqueue_ring_matches_fifo =
  QCheck2.Test.make ~count:300 ~name:"ring queue matches a FIFO model"
    QCheck2.Gen.(list_size (int_range 1 300) (pair bool (int_range 1 50)))
    (fun ops ->
      let ids = Netsim.Packet.fresh_id_state () in
      let q = Netsim.Nqueue.create (Netsim.Nqueue.packets 40) in
      let model = Queue.create () in
      let fired = ref (-1) in
      List.for_all
        (fun (push, size) ->
          if push then begin
            let p = mk_packet ids ~src:0 ~dst:1 ~size in
            let cb = if size land 1 = 0 then Some (fun id -> fired := id) else None in
            let room = Queue.length model < 40 in
            let accepted = Netsim.Nqueue.push q p cb in
            if accepted then Queue.push (p, cb <> None) model;
            accepted = room
          end
          else
            match Queue.take_opt model with
            | None -> Netsim.Nqueue.is_empty q
            | Some (want, has_cb) ->
                fired := -1;
                (match Netsim.Nqueue.head_on_transmit q with
                | Some f -> f want.Netsim.Packet.id
                | None -> ());
                let got = Netsim.Nqueue.take q in
                got == want
                && !fired = (if has_cb then want.Netsim.Packet.id else -1)
                && Netsim.Nqueue.length q = Queue.length model
                && Netsim.Nqueue.byte_length q
                   = Queue.fold (fun acc (p, _) -> acc + p.Netsim.Packet.size) 0 model)
        ops)

(* Two links share one pool: records are reused across links, so the
   pool's size is the peak number of packets propagating at once on
   either, not the sum of each link's peak. *)
let test_flight_pool_shared_peak () =
  let sim = Engine.Sim.create () in
  let flights = Netsim.Link.flight_pool sim in
  let mk () =
    (* 1000 bytes at 8 Mbit/s: 1 ms on the wire, then 10 ms in flight. *)
    Netsim.Link.create sim ~src:(Netsim.Node_id.of_int 0) ~dst:(Netsim.Node_id.of_int 1)
      ~rate:(Engine.Units.Rate.mbit 8) ~delay:(Engine.Time.ms 10) ~flights ()
  in
  let a = mk () and b = mk () in
  let delivered = ref 0 in
  Netsim.Link.set_receiver a (fun _ -> incr delivered);
  Netsim.Link.set_receiver b (fun _ -> incr delivered);
  let ids = Netsim.Packet.fresh_id_state () in
  for _ = 1 to 4 do
    Netsim.Link.send a (mk_packet ids ~src:0 ~dst:1 ~size:1000)
  done;
  (* Link b's burst starts after all of a's packets have landed. *)
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.ms 30) (fun () ->
         for _ = 1 to 3 do
           Netsim.Link.send b (mk_packet ids ~src:0 ~dst:1 ~size:1000)
         done)
      : Engine.Sim.handle);
  Engine.Sim.run sim;
  Alcotest.(check int) "all delivered" 7 !delivered;
  Alcotest.(check int) "records = peak in flight" 4 (Netsim.Link.flight_records flights);
  Alcotest.(check int) "nothing left in flight" 0
    (Netsim.Link.packets_in_flight a + Netsim.Link.packets_in_flight b)

(* ------------------------------------------------------------------ *)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_nqueue_conservation;
      prop_nqueue_ring_matches_fifo;
      prop_routes_match_reference;
      prop_links_order_matches_reference;
    ]

let () =
  Alcotest.run "netsim"
    [
      ( "ids+packets",
        [
          Alcotest.test_case "node ids" `Quick test_node_id;
          Alcotest.test_case "packet ids dense" `Quick test_packet_ids_dense;
        ] );
      ( "nqueue",
        [
          Alcotest.test_case "fifo" `Quick test_nqueue_fifo;
          Alcotest.test_case "packet capacity" `Quick test_nqueue_packet_capacity;
          Alcotest.test_case "byte capacity" `Quick test_nqueue_byte_capacity;
          Alcotest.test_case "oversized packet" `Quick test_nqueue_oversized_packet;
          Alcotest.test_case "mixed limits" `Quick test_nqueue_mixed_limits;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery latency" `Quick test_link_delivery_latency;
          Alcotest.test_case "serialization spacing" `Quick
            test_link_serialization_spacing;
          Alcotest.test_case "busy and queue" `Quick test_link_busy_and_queue;
          Alcotest.test_case "drop" `Quick test_link_drop;
          Alcotest.test_case "blackhole" `Quick test_link_blackhole;
          Alcotest.test_case "on_transmit timing" `Quick test_link_on_transmit;
          Alcotest.test_case "on_transmit not fired on drop" `Quick
            test_link_on_transmit_not_fired_on_drop;
          Alcotest.test_case "set_rate" `Quick test_link_set_rate;
          Alcotest.test_case "utilization" `Quick test_link_utilization;
          Alcotest.test_case "flight pool holds the shared peak" `Quick
            test_flight_pool_shared_peak;
        ] );
      ( "topology",
        [
          Alcotest.test_case "build" `Quick test_topology_build;
          Alcotest.test_case "errors" `Quick test_topology_errors;
          Alcotest.test_case "line" `Quick test_topology_line;
          Alcotest.test_case "star" `Quick test_topology_star;
          Alcotest.test_case "dumbbell" `Quick test_topology_dumbbell;
        ] );
      ( "network",
        [
          Alcotest.test_case "routing" `Quick test_network_routing;
          Alcotest.test_case "delivery" `Quick test_network_delivery;
          Alcotest.test_case "undeliverable" `Quick test_network_undeliverable;
          Alcotest.test_case "loopback" `Quick test_network_loopback;
          Alcotest.test_case "no route" `Quick test_network_no_route;
          Alcotest.test_case "on_transmit fires once" `Quick
            test_network_on_transmit_first_link_only;
        ] );
      ( "cbr",
        [
          Alcotest.test_case "paces at the nominal rate" `Quick test_cbr_rate;
        ] );
      ("properties", qtests);
    ]
