(* Unit tests for the Tor overlay model: cells, onion layering,
   directory, switchboard, control plane, streams and legacy SENDME. *)

let time = Alcotest.testable Engine.Time.pp Engine.Time.equal
let node = Alcotest.testable Netsim.Node_id.pp Netsim.Node_id.equal

(* ------------------------------------------------------------------ *)
(* Circuit ids and cells *)

let test_circuit_id () =
  let g = Tor_model.Circuit_id.generator () in
  Alcotest.(check int) "first" 0 (Tor_model.Circuit_id.to_int (Tor_model.Circuit_id.next g));
  Alcotest.(check int) "second" 1 (Tor_model.Circuit_id.to_int (Tor_model.Circuit_id.next g))

let test_cell_sizes () =
  Alcotest.(check int) "cell size" 512 Tor_model.Cell.size;
  Alcotest.(check int) "payload capacity" 498 Tor_model.Cell.payload_capacity

let test_cell_data_validation () =
  let c = Tor_model.Circuit_id.of_int 0 in
  Alcotest.check_raises "length too big" (Invalid_argument "Cell.data: length out of range")
    (fun () ->
      ignore (Tor_model.Cell.data c ~layers:1 ~stream_id:0 ~seq:0 ~length:499 ~last:false));
  Alcotest.check_raises "zero length" (Invalid_argument "Cell.data: length out of range")
    (fun () ->
      ignore (Tor_model.Cell.data c ~layers:1 ~stream_id:0 ~seq:0 ~length:0 ~last:false));
  Alcotest.check_raises "negative seq" (Invalid_argument "Cell.data: negative seq")
    (fun () ->
      ignore (Tor_model.Cell.data c ~layers:1 ~stream_id:0 ~seq:(-1) ~length:1 ~last:false))

let test_cell_predicates () =
  let c = Tor_model.Circuit_id.of_int 1 in
  let data = Tor_model.Cell.data c ~layers:2 ~stream_id:0 ~seq:0 ~length:10 ~last:false in
  Alcotest.(check bool) "relay_cmd" true (Tor_model.Cell.relay_cmd data <> None);
  Alcotest.(check bool) "create has no relay_cmd" true
    (Tor_model.Cell.relay_cmd (Tor_model.Cell.make c Tor_model.Cell.Create) = None)

(* ------------------------------------------------------------------ *)
(* Onion layering *)

(* A RELAY cell wrapped in [hops] layers, as a client sends it. *)
let wrap ~hops cmd c = Tor_model.Cell.make c (Tor_model.Cell.Relay { layers = hops; cmd })

let layers (cell : Tor_model.Cell.t) =
  match cell.command with Tor_model.Cell.Relay { layers; _ } -> Some layers | _ -> None

(* The relay command once every layer is off. *)
let exposed cell = if layers cell = Some 0 then Tor_model.Cell.relay_cmd cell else None

let test_crypto_wrap_peel () =
  let c = Tor_model.Circuit_id.of_int 0 in
  let cell =
    wrap ~hops:3
      (Tor_model.Cell.Relay_data { stream_id = 0; seq = 0; length = 5; last = false })
      c
  in
  Alcotest.(check (option int)) "3 layers" (Some 3) (layers cell);
  Alcotest.(check bool) "not exposed" true (exposed cell = None);
  let cell = Tor_model.Crypto_sim.peel cell in
  let cell = Tor_model.Crypto_sim.peel cell in
  let cell = Tor_model.Crypto_sim.peel cell in
  Alcotest.(check (option int)) "0 layers" (Some 0) (layers cell);
  Alcotest.(check bool) "exposed" true (exposed cell <> None);
  Alcotest.check_raises "over-peel" (Invalid_argument "Crypto_sim.peel: no layers left")
    (fun () -> ignore (Tor_model.Crypto_sim.peel cell))

let test_crypto_errors () =
  let c = Tor_model.Circuit_id.of_int 0 in
  Alcotest.check_raises "peel control" (Invalid_argument "Crypto_sim.peel: not a RELAY cell")
    (fun () -> ignore (Tor_model.Crypto_sim.peel (Tor_model.Cell.make c Tor_model.Cell.Create)))

let prop_peel_inverse_of_wrap =
  QCheck2.Test.make ~name:"peeling exactly [hops] times exposes the command"
    QCheck2.Gen.(int_range 1 10)
    (fun hops ->
      let c = Tor_model.Circuit_id.of_int 9 in
      let cmd = Tor_model.Cell.Relay_sendme { stream_id = None } in
      let cell = ref (wrap ~hops cmd c) in
      for _ = 1 to hops do
        cell := Tor_model.Crypto_sim.peel !cell
      done;
      exposed !cell = Some cmd)

(* ------------------------------------------------------------------ *)
(* Relay info and directory *)

let mk_relay ?(flags = [ Tor_model.Relay_info.Guard; Tor_model.Relay_info.Exit ]) ~node ~mbit
    () =
  Tor_model.Relay_info.make
    ~nickname:(Printf.sprintf "r%d" node)
    ~node:(Netsim.Node_id.of_int node)
    ~bandwidth:(Engine.Units.Rate.mbit mbit)
    ~latency:(Engine.Time.ms 10) ~flags ()

let test_relay_flags () =
  let r = mk_relay ~node:0 ~mbit:1 () in
  Alcotest.(check bool) "guard" true (Tor_model.Relay_info.has_flag r Tor_model.Relay_info.Guard);
  Alcotest.(check bool) "fast" false (Tor_model.Relay_info.has_flag r Tor_model.Relay_info.Fast)

let test_directory_select_distinct () =
  let dir = Tor_model.Directory.create () in
  for i = 0 to 9 do
    Tor_model.Directory.add dir (mk_relay ~node:i ~mbit:(i + 1) ())
  done;
  let rng = Engine.Rng.create 11 in
  for _ = 1 to 100 do
    match Tor_model.Directory.select_path dir rng ~hops:3 () with
    | None -> Alcotest.fail "selection failed"
    | Some relays ->
        Alcotest.(check int) "three relays" 3 (List.length relays);
        let nodes =
          List.sort_uniq
            (fun a b -> Int.compare (Netsim.Node_id.to_int a) (Netsim.Node_id.to_int b))
            (List.map (fun (r : Tor_model.Relay_info.t) -> r.node) relays)
        in
        Alcotest.(check int) "distinct" 3 (List.length nodes)
  done

let test_directory_flags_honoured () =
  let dir = Tor_model.Directory.create () in
  (* Only node 0 is an exit; nodes 1-4 guard-only. *)
  Tor_model.Directory.add dir
    (mk_relay ~flags:[ Tor_model.Relay_info.Exit ] ~node:0 ~mbit:1 ());
  for i = 1 to 4 do
    Tor_model.Directory.add dir
      (mk_relay ~flags:[ Tor_model.Relay_info.Guard ] ~node:i ~mbit:1 ())
  done;
  let rng = Engine.Rng.create 12 in
  for _ = 1 to 50 do
    match Tor_model.Directory.select_path dir rng ~hops:3 () with
    | None -> Alcotest.fail "selection failed"
    | Some relays ->
        let exit = List.nth relays 2 in
        Alcotest.check node "exit is node 0" (Netsim.Node_id.of_int 0)
          exit.Tor_model.Relay_info.node;
        let guard = List.nth relays 0 in
        Alcotest.(check bool) "guard has Guard flag" true
          (Tor_model.Relay_info.has_flag guard Tor_model.Relay_info.Guard)
  done

let test_directory_bandwidth_bias () =
  let dir = Tor_model.Directory.create () in
  Tor_model.Directory.add dir (mk_relay ~node:0 ~mbit:90 ());
  Tor_model.Directory.add dir (mk_relay ~node:1 ~mbit:10 ());
  Tor_model.Directory.add dir (mk_relay ~node:2 ~mbit:10 ());
  let rng = Engine.Rng.create 13 in
  let fast_first = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    match Tor_model.Directory.select_path dir rng ~hops:1 () with
    | Some [ r ] when Netsim.Node_id.to_int r.Tor_model.Relay_info.node = 0 ->
        incr fast_first
    | _ -> ()
  done;
  (* Node 0 has ~82% of the weight. *)
  Alcotest.(check bool)
    (Printf.sprintf "fast relay chosen ~82%% (got %d/%d)" !fast_first n)
    true
    (!fast_first > (n * 7 / 10) && !fast_first < (n * 95 / 100))

let test_directory_impossible () =
  let dir = Tor_model.Directory.create () in
  Tor_model.Directory.add dir (mk_relay ~flags:[ Tor_model.Relay_info.Guard ] ~node:0 ~mbit:1 ());
  let rng = Engine.Rng.create 14 in
  Alcotest.(check bool) "no exit -> None" true
    (Tor_model.Directory.select_path dir rng ~hops:2 () = None);
  Alcotest.(check bool) "not enough relays -> None" true
    (Tor_model.Directory.select_path dir rng ~hops:3 () = None)

let test_directory_exclude () =
  let dir = Tor_model.Directory.create () in
  for i = 0 to 5 do
    Tor_model.Directory.add dir (mk_relay ~node:i ~mbit:10 ())
  done;
  let rng = Engine.Rng.create 15 in
  let banned = [ Netsim.Node_id.of_int 0; Netsim.Node_id.of_int 1 ] in
  for _ = 1 to 100 do
    match Tor_model.Directory.select_path dir rng ~exclude:banned ~hops:3 () with
    | None -> Alcotest.fail "selection failed despite enough relays"
    | Some relays ->
        List.iter
          (fun (r : Tor_model.Relay_info.t) ->
            Alcotest.(check bool) "excluded relay never chosen" false
              (List.exists (Netsim.Node_id.equal r.node) banned))
          relays
  done;
  (* Excluding everything leaves no path. *)
  let all = List.init 6 Netsim.Node_id.of_int in
  Alcotest.(check bool) "all excluded -> None" true
    (Tor_model.Directory.select_path dir rng ~exclude:all ~hops:1 () = None)

let test_directory_uniform_selection () =
  let dir = Tor_model.Directory.create () in
  (* Node 0 owns ~98% of the bandwidth; uniform selection must ignore
     that and pick it like any other relay. *)
  Tor_model.Directory.add dir (mk_relay ~node:0 ~mbit:500 ());
  for i = 1 to 4 do
    Tor_model.Directory.add dir (mk_relay ~node:i ~mbit:2 ())
  done;
  let count selection seed =
    let rng = Engine.Rng.create seed in
    let hits = ref 0 in
    for _ = 1 to 1000 do
      match Tor_model.Directory.select_path dir rng ~selection ~hops:1 () with
      | Some [ r ] when Netsim.Node_id.to_int r.Tor_model.Relay_info.node = 0 ->
          incr hits
      | _ -> ()
    done;
    !hits
  in
  let weighted = count Tor_model.Directory.Bandwidth_weighted 16 in
  let uniform = count Tor_model.Directory.Uniform 16 in
  Alcotest.(check bool)
    (Printf.sprintf "weighted (%d) favours the fat relay, uniform (%d) does not"
       weighted uniform)
    true
    (weighted > 900 && uniform > 100 && uniform < 350)

let test_selection_strings () =
  List.iter
    (fun sel ->
      Alcotest.(check bool)
        ("selection string round trip: " ^ Tor_model.Directory.selection_to_string sel)
        true
        (Tor_model.Directory.selection_of_string
           (Tor_model.Directory.selection_to_string sel)
        = Some sel))
    [ Tor_model.Directory.Bandwidth_weighted; Tor_model.Directory.Uniform ];
  Alcotest.(check bool) "aliases accepted" true
    (Tor_model.Directory.selection_of_string "bw"
     = Some Tor_model.Directory.Bandwidth_weighted
    && Tor_model.Directory.selection_of_string "random"
       = Some Tor_model.Directory.Uniform);
  Alcotest.(check bool) "unknown rejected" true
    (Tor_model.Directory.selection_of_string "fastest" = None)

(* ------------------------------------------------------------------ *)
(* Circuit *)

let mk_circuit () =
  let relays = List.init 3 (fun i -> mk_relay ~node:(i + 1) ~mbit:5 ()) in
  Tor_model.Circuit.make ~id:(Tor_model.Circuit_id.of_int 0)
    ~client:(Netsim.Node_id.of_int 0) ~relays ~server:(Netsim.Node_id.of_int 4)

let test_circuit_structure () =
  let c = mk_circuit () in
  Alcotest.(check int) "hop count" 4 (Tor_model.Circuit.hop_count c);
  Alcotest.(check int) "layers" 3 (Tor_model.Circuit.layer_count c);
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3; 4 ]
    (List.map Netsim.Node_id.to_int (Tor_model.Circuit.nodes c));
  Alcotest.(check (option node)) "successor" (Some (Netsim.Node_id.of_int 3))
    (Tor_model.Circuit.successor c (Netsim.Node_id.of_int 2));
  Alcotest.(check (option node)) "predecessor" (Some (Netsim.Node_id.of_int 1))
    (Tor_model.Circuit.predecessor c (Netsim.Node_id.of_int 2));
  Alcotest.(check (option node)) "server has no successor" None
    (Tor_model.Circuit.successor c (Netsim.Node_id.of_int 4))

let test_circuit_validation () =
  Alcotest.check_raises "empty relays" (Invalid_argument "Circuit.make: need at least one relay")
    (fun () ->
      ignore
        (Tor_model.Circuit.make ~id:(Tor_model.Circuit_id.of_int 0)
           ~client:(Netsim.Node_id.of_int 0) ~relays:[] ~server:(Netsim.Node_id.of_int 1)));
  Alcotest.check_raises "duplicate node" (Invalid_argument "Circuit.make: duplicate node in path")
    (fun () ->
      ignore
        (Tor_model.Circuit.make ~id:(Tor_model.Circuit_id.of_int 0)
           ~client:(Netsim.Node_id.of_int 0)
           ~relays:[ mk_relay ~node:0 ~mbit:1 () ]
           ~server:(Netsim.Node_id.of_int 2)))

(* ------------------------------------------------------------------ *)
(* A small overlay on a star for switchboard / control / sendme tests *)

let mk_overlay n_leaves =
  let sim = Engine.Sim.create () in
  let topo, _, leaves =
    Netsim.Topology.star sim ~hub:"hub"
      ~leaves:
        (List.init n_leaves (fun i ->
             (Printf.sprintf "l%d" i, Engine.Units.Rate.mbit 10, Engine.Time.ms 5)))
      ()
  in
  let net = Netsim.Network.create topo in
  let sbs = List.map (Tor_model.Switchboard.install net) leaves in
  (sim, net, Array.of_list leaves, Array.of_list sbs)

let test_switchboard_dispatch () =
  let sim, _, leaves, sbs = mk_overlay 2 in
  let c0 = Tor_model.Circuit_id.of_int 0 in
  let got = ref [] in
  Tor_model.Switchboard.register_circuit sbs.(1) c0 (fun ~from cell ->
      got := (from, cell) :: !got);
  Tor_model.Switchboard.send_cell sbs.(0) ~dst:leaves.(1)
    (Tor_model.Cell.make c0 Tor_model.Cell.Create);
  Engine.Sim.run sim;
  (match !got with
  | [ (from, cell) ] ->
      Alcotest.check node "from" leaves.(0) from;
      Alcotest.(check bool) "create" true (cell.Tor_model.Cell.command = Tor_model.Cell.Create)
  | _ -> Alcotest.fail "expected one cell");
  Alcotest.check_raises "double register"
    (Invalid_argument "Switchboard.register_circuit: c0 already registered at n2")
    (fun () -> Tor_model.Switchboard.register_circuit sbs.(1) c0 (fun ~from:_ _ -> ()))

let test_switchboard_orphans_and_control () =
  let sim, _, leaves, sbs = mk_overlay 2 in
  let c9 = Tor_model.Circuit_id.of_int 9 in
  Tor_model.Switchboard.send_cell sbs.(0) ~dst:leaves.(1)
    (Tor_model.Cell.make c9 Tor_model.Cell.Destroy);
  Engine.Sim.run sim;
  Alcotest.(check int) "orphan without control" 1
    (Tor_model.Switchboard.orphan_cells sbs.(1));
  let ctl = ref 0 in
  Tor_model.Switchboard.set_control_handler sbs.(1) (fun ~from:_ _ -> incr ctl);
  Tor_model.Switchboard.send_cell sbs.(0) ~dst:leaves.(1)
    (Tor_model.Cell.make c9 Tor_model.Cell.Destroy);
  Engine.Sim.run sim;
  Alcotest.(check int) "control handler got it" 1 !ctl

let test_switchboard_unregister () =
  let sim, _, leaves, sbs = mk_overlay 2 in
  let c0 = Tor_model.Circuit_id.of_int 0 in
  let got = ref 0 in
  Tor_model.Switchboard.register_circuit sbs.(1) c0 (fun ~from:_ _ -> incr got);
  Tor_model.Switchboard.unregister_circuit sbs.(1) c0;
  Tor_model.Switchboard.send_cell sbs.(0) ~dst:leaves.(1)
    (Tor_model.Cell.make c0 Tor_model.Cell.Create);
  Engine.Sim.run sim;
  Alcotest.(check int) "nothing delivered" 0 !got

(* ------------------------------------------------------------------ *)
(* Control plane: Relay_ctl + Circuit_builder *)

let test_circuit_establishment () =
  let sim, _, leaves, sbs = mk_overlay 5 in
  (* leaves: 0=client, 1..3=relays, 4=server; every non-client runs the
     control automaton. *)
  let ctls = Array.init 5 (fun i -> Tor_model.Relay_ctl.create sbs.(i)) in
  let relays = List.init 3 (fun i -> mk_relay ~node:(Netsim.Node_id.to_int leaves.(i + 1)) ~mbit:5 ()) in
  let circuit =
    Tor_model.Circuit.make ~id:(Tor_model.Circuit_id.of_int 0) ~client:leaves.(0) ~relays
      ~server:leaves.(4)
  in
  let outcome = ref None in
  Tor_model.Circuit_builder.build sbs.(0) circuit
    ~on_done:(fun o -> outcome := Some o)
    ();
  Engine.Sim.run sim;
  (match !outcome with
  | Some (Tor_model.Circuit_builder.Established { at }) ->
      (* CREATE + 3 EXTEND ladders, each a growing round trip. *)
      Alcotest.(check bool) "took multiple RTTs" true Engine.Time.(at > Engine.Time.ms 60)
  | Some (Tor_model.Circuit_builder.Failed msg) -> Alcotest.fail msg
  | Some (Tor_model.Circuit_builder.Refused _) -> Alcotest.fail "refused"
  | None -> Alcotest.fail "never finished");
  (* Each relay knows its predecessor and successor. *)
  for i = 1 to 3 do
    match Tor_model.Relay_ctl.route ctls.(i) (Tor_model.Circuit_id.of_int 0) with
    | Some { Tor_model.Relay_ctl.prev; next } ->
        Alcotest.check node "prev" leaves.(i - 1) prev;
        Alcotest.(check (option node)) "next" (Some leaves.(i + 1)) next
    | None -> Alcotest.fail "relay missing route"
  done;
  (* The server end has no successor. *)
  match Tor_model.Relay_ctl.route ctls.(4) (Tor_model.Circuit_id.of_int 0) with
  | Some { Tor_model.Relay_ctl.next = None; _ } -> ()
  | _ -> Alcotest.fail "server should be the end"

let test_circuit_establishment_timeout () =
  let sim, _, leaves, sbs = mk_overlay 3 in
  (* No Relay_ctl anywhere: CREATE is never answered. *)
  let relays = [ mk_relay ~node:(Netsim.Node_id.to_int leaves.(1)) ~mbit:5 () ] in
  let circuit =
    Tor_model.Circuit.make ~id:(Tor_model.Circuit_id.of_int 0) ~client:leaves.(0) ~relays
      ~server:leaves.(2)
  in
  let outcome = ref None in
  Tor_model.Circuit_builder.build sbs.(0) circuit ~timeout:(Engine.Time.s 1)
    ~on_done:(fun o -> outcome := Some o)
    ();
  Engine.Sim.run sim ~until:(Engine.Time.s 5);
  match !outcome with
  | Some (Tor_model.Circuit_builder.Failed _) -> ()
  | _ -> Alcotest.fail "expected timeout failure"

let test_builder_timeout_destroys_prefix () =
  let sim, _, leaves, sbs = mk_overlay 5 in
  let ctls = Array.init 5 (fun i -> Tor_model.Relay_ctl.create sbs.(i)) in
  let relays = List.init 3 (fun i -> mk_relay ~node:(Netsim.Node_id.to_int leaves.(i + 1)) ~mbit:5 ()) in
  let circuit =
    Tor_model.Circuit.make ~id:(Tor_model.Circuit_id.of_int 0) ~client:leaves.(0) ~relays
      ~server:leaves.(4)
  in
  (* The middle relay is dead from the start: the ladder reaches the
     guard, then the EXTEND onwards is black-holed. *)
  Tor_model.Relay_ctl.crash ctls.(2);
  let outcome = ref None in
  Tor_model.Circuit_builder.build sbs.(0) circuit ~timeout:(Engine.Time.s 1)
    ~on_done:(fun o -> outcome := Some o)
    ();
  Engine.Sim.run sim ~until:(Engine.Time.s 5);
  (match !outcome with
  | Some (Tor_model.Circuit_builder.Failed _) -> ()
  | _ -> Alcotest.fail "expected timeout failure");
  (* The watchdog's DESTROY must have walked the half-built prefix, so
     the guard does not keep a routing entry for a circuit that will
     never carry a cell. *)
  Alcotest.(check (list int)) "guard forgot the half-built circuit" []
    (List.map Tor_model.Circuit_id.to_int (Tor_model.Relay_ctl.circuits ctls.(1)));
  Alcotest.(check int) "guard saw the DESTROY" 1
    (Tor_model.Relay_ctl.destroyed ctls.(1))

let test_destroy_propagates () =
  let sim, _, leaves, sbs = mk_overlay 5 in
  let ctls = Array.init 5 (fun i -> Tor_model.Relay_ctl.create sbs.(i)) in
  let relays = List.init 3 (fun i -> mk_relay ~node:(Netsim.Node_id.to_int leaves.(i + 1)) ~mbit:5 ()) in
  let circuit =
    Tor_model.Circuit.make ~id:(Tor_model.Circuit_id.of_int 0) ~client:leaves.(0) ~relays
      ~server:leaves.(4)
  in
  let done_ = ref false in
  Tor_model.Circuit_builder.build sbs.(0) circuit ~on_done:(fun _ -> done_ := true) ();
  Engine.Sim.run sim;
  Alcotest.(check bool) "established" true !done_;
  (* Client tears the circuit down: the guard propagates onwards. *)
  Tor_model.Switchboard.send_cell sbs.(0) ~dst:leaves.(1)
    (Tor_model.Cell.make (Tor_model.Circuit_id.of_int 0) Tor_model.Cell.Destroy);
  Engine.Sim.run sim;
  for i = 1 to 4 do
    Alcotest.(check (list int))
      (Printf.sprintf "relay %d forgot the circuit" i)
      []
      (List.map Tor_model.Circuit_id.to_int (Tor_model.Relay_ctl.circuits ctls.(i)))
  done

(* A down switchboard is a black hole: incoming cells vanish (counted)
   and outgoing sends are refused, with no notification to anyone —
   exactly what a crashed process looks like from the network. *)
let test_switchboard_down () =
  let sim, _, leaves, sbs = mk_overlay 2 in
  let c0 = Tor_model.Circuit_id.of_int 0 in
  let got = ref 0 in
  Tor_model.Switchboard.register_circuit sbs.(1) c0 (fun ~from:_ _ -> incr got);
  let send () =
    Tor_model.Switchboard.send_cell sbs.(0) ~dst:leaves.(1)
      (Tor_model.Cell.make c0 Tor_model.Cell.Create)
  in
  send ();
  Engine.Sim.run sim;
  Alcotest.(check int) "delivered while up" 1 !got;
  Tor_model.Switchboard.set_down sbs.(1) true;
  Alcotest.(check bool) "reports down" true (Tor_model.Switchboard.is_down sbs.(1));
  send ();
  send ();
  Engine.Sim.run sim;
  Alcotest.(check int) "nothing delivered while down" 1 !got;
  Alcotest.(check int) "black-holed" 2 (Tor_model.Switchboard.blackholed_cells sbs.(1));
  Tor_model.Switchboard.send_cell sbs.(1) ~dst:leaves.(0)
    (Tor_model.Cell.make c0 Tor_model.Cell.Created);
  Alcotest.(check int) "outgoing refused" 1 (Tor_model.Switchboard.refused_sends sbs.(1));
  Tor_model.Switchboard.set_down sbs.(1) false;
  send ();
  Engine.Sim.run sim;
  Alcotest.(check int) "delivered again after restart" 2 !got

let test_relay_crash_and_restart () =
  let sim, _, leaves, sbs = mk_overlay 5 in
  let ctls = Array.init 5 (fun i -> Tor_model.Relay_ctl.create sbs.(i)) in
  let relays = List.init 3 (fun i -> mk_relay ~node:(Netsim.Node_id.to_int leaves.(i + 1)) ~mbit:5 ()) in
  let circuit =
    Tor_model.Circuit.make ~id:(Tor_model.Circuit_id.of_int 0) ~client:leaves.(0) ~relays
      ~server:leaves.(4)
  in
  Tor_model.Circuit_builder.build sbs.(0) circuit ~on_done:(fun _ -> ()) ();
  Engine.Sim.run sim;
  Alcotest.(check bool) "middle relay routes the circuit" true
    (Tor_model.Relay_ctl.route ctls.(2) (Tor_model.Circuit_id.of_int 0) <> None);
  Tor_model.Relay_ctl.crash ctls.(2);
  Alcotest.(check bool) "routing state lost" true
    (Tor_model.Relay_ctl.circuits ctls.(2) = []);
  Alcotest.(check bool) "switchboard taken down" true
    (Tor_model.Switchboard.is_down sbs.(2));
  Alcotest.(check int) "crash counted" 1 (Tor_model.Relay_ctl.crashes ctls.(2));
  (* Silent death: no DESTROY reaches the neighbours, so they still
     believe the circuit exists. *)
  Engine.Sim.run sim;
  Alcotest.(check bool) "predecessor still routes it" true
    (Tor_model.Relay_ctl.route ctls.(1) (Tor_model.Circuit_id.of_int 0) <> None);
  Tor_model.Switchboard.set_down sbs.(2) false;
  Alcotest.(check bool) "back up" true (not (Tor_model.Switchboard.is_down sbs.(2)));
  Alcotest.(check bool) "restart keeps the table empty" true
    (Tor_model.Relay_ctl.circuits ctls.(2) = [])

(* ------------------------------------------------------------------ *)
(* Streams *)

let test_source_slicing () =
  let src = Tor_model.Stream.Source.create ~stream_id:7 ~bytes:1000 () in
  let c = Tor_model.Circuit_id.of_int 0 in
  Alcotest.(check int) "cell count" 3 (Tor_model.Stream.Source.cell_count src);
  let take () =
    let seq = Tor_model.Stream.Source.next_seq src in
    let cell = Tor_model.Stream.Source.take_cell src c ~layers:2 in
    (match Tor_model.Cell.relay_cmd cell with
    | Some (Tor_model.Cell.Relay_data d) ->
        Alcotest.(check int) "next_seq names the cell taken" seq d.seq
    | _ -> ());
    cell
  in
  let c1 = take () in
  let c2 = take () in
  let c3 = take () in
  Alcotest.(check int) "drained" 0 (Tor_model.Stream.Source.remaining src);
  Alcotest.check_raises "take from a drained source"
    (Invalid_argument "Stream.Source.take_cell: source drained") (fun () ->
      ignore (Tor_model.Stream.Source.take_cell src c ~layers:2));
  let get_len cell =
    match Tor_model.Cell.relay_cmd cell with
    | Some (Tor_model.Cell.Relay_data { length; last; seq; _ }) -> (length, last, seq)
    | _ -> Alcotest.fail "not a data cell"
  in
  Alcotest.(check (triple int bool int)) "first" (498, false, 0) (get_len c1);
  Alcotest.(check (triple int bool int)) "second" (498, false, 1) (get_len c2);
  Alcotest.(check (triple int bool int)) "last" (4, true, 2) (get_len c3)

let prop_source_conserves_bytes =
  QCheck2.Test.make ~name:"source slices conserve total bytes"
    QCheck2.Gen.(int_range 1 100_000)
    (fun bytes ->
      let src = Tor_model.Stream.Source.create ~stream_id:0 ~bytes () in
      let c = Tor_model.Circuit_id.of_int 0 in
      let rec total acc =
        if Tor_model.Stream.Source.remaining src = 0 then acc
        else
          match Tor_model.Cell.relay_cmd (Tor_model.Stream.Source.take_cell src c ~layers:1) with
          | Some (Tor_model.Cell.Relay_data { length; _ }) -> total (acc + length)
          | _ -> acc
      in
      total 0 = bytes && Tor_model.Stream.Source.remaining src = 0)

let test_sink_dedup_and_completion () =
  let sink = Tor_model.Stream.Sink.create ~expected_bytes:996 () in
  let deliver seq length =
    Tor_model.Stream.Sink.deliver sink ~now:(Engine.Time.ms seq)
      (Tor_model.Cell.Relay_data { stream_id = 0; seq; length; last = false })
  in
  deliver 0 498;
  deliver 0 498;
  Alcotest.(check int) "dup counted" 1 (Tor_model.Stream.Sink.duplicates sink);
  Alcotest.(check bool) "not complete" false (Tor_model.Stream.Sink.complete sink);
  deliver 1 498;
  Alcotest.(check bool) "complete" true (Tor_model.Stream.Sink.complete sink);
  Alcotest.(check (option time)) "completion stamp" (Some (Engine.Time.ms 1))
    (Tor_model.Stream.Sink.completed_at sink);
  (* Late duplicates do not move the completion time. *)
  deliver 1 498;
  Alcotest.(check (option time)) "stamp stable" (Some (Engine.Time.ms 1))
    (Tor_model.Stream.Sink.completed_at sink)

let test_stream_resume_offset () =
  (* A resumed source skips the delivered prefix and keeps numbering
     where the previous generation's contiguous prefix ended. *)
  let src = Tor_model.Stream.Source.create ~start_byte:498 ~stream_id:0 ~bytes:1000 () in
  Alcotest.(check int) "remaining" 502 (Tor_model.Stream.Source.remaining src);
  let c = Tor_model.Circuit_id.of_int 0 in
  let seq_of cell =
    match Tor_model.Cell.relay_cmd cell with
    | Some (Tor_model.Cell.Relay_data { seq; length; last; _ }) -> (seq, length, last)
    | _ -> Alcotest.fail "not a data cell"
  in
  Alcotest.(check (triple int int bool)) "first resumed cell" (1, 498, false)
    (seq_of (Tor_model.Stream.Source.take_cell src c ~layers:1));
  Alcotest.(check (triple int int bool)) "final cell" (2, 4, true)
    (seq_of (Tor_model.Stream.Source.take_cell src c ~layers:1));
  Alcotest.(check int) "drained" 0 (Tor_model.Stream.Source.remaining src);
  (* The matching sink counts the prefix as delivered and tracks the
     contiguous prefix through holes. *)
  let sink = Tor_model.Stream.Sink.create ~start_byte:498 ~expected_bytes:1000 () in
  Alcotest.(check int) "prefix counted" 498 (Tor_model.Stream.Sink.delivered_bytes sink);
  let deliver seq length =
    Tor_model.Stream.Sink.deliver sink ~now:(Engine.Time.ms seq)
      (Tor_model.Cell.Relay_data { stream_id = 0; seq; length; last = false })
  in
  deliver 2 4;
  Alcotest.(check int) "hole blocks the prefix" 498
    (Tor_model.Stream.Sink.delivered_bytes sink);
  Alcotest.(check bool) "not complete" false (Tor_model.Stream.Sink.complete sink);
  deliver 1 498;
  Alcotest.(check int) "prefix closes over the hole" 1000
    (Tor_model.Stream.Sink.delivered_bytes sink);
  Alcotest.(check bool) "complete" true (Tor_model.Stream.Sink.complete sink)

let test_stream_offset_validation () =
  let misaligned () =
    ignore (Tor_model.Stream.Source.create ~start_byte:100 ~stream_id:0 ~bytes:1000 ())
  in
  Alcotest.check_raises "misaligned source offset"
    (Invalid_argument "Stream.Source.create: start_byte must be cell-aligned")
    misaligned;
  Alcotest.check_raises "sink offset out of range"
    (Invalid_argument "Stream.Sink.create: start_byte out of range") (fun () ->
      ignore (Tor_model.Stream.Sink.create ~start_byte:996 ~expected_bytes:996 ()))

let test_sink_seq_out_of_range () =
  (* 996 bytes are two cells: seqs 0 and 1. *)
  let sink = Tor_model.Stream.Sink.create ~expected_bytes:996 () in
  let deliver seq () =
    Tor_model.Stream.Sink.deliver sink ~now:Engine.Time.zero
      (Tor_model.Cell.Relay_data { stream_id = 0; seq; length = 498; last = false })
  in
  Alcotest.check_raises "seq past the last cell"
    (Invalid_argument "Stream.Sink.deliver: seq out of range") (deliver 2);
  Alcotest.check_raises "negative seq"
    (Invalid_argument "Stream.Sink.deliver: seq out of range") (deliver (-1));
  deliver 1 ();
  Alcotest.(check int) "in-range seq accepted" 498
    (Tor_model.Stream.Sink.received_bytes sink)

(* The sink as it was before its per-seq table became a dense array,
   frozen as the reference the array-backed sink must agree with. *)
module Reference_sink = struct
  type t = {
    expected : int;
    seen : (int, int) Hashtbl.t;
    mutable received : int;
    mutable cells : int;
    mutable duplicates : int;
    mutable next_contig : int;
    mutable contig_bytes : int;
    mutable completed_at : Engine.Time.t option;
  }

  let create ~start_byte ~expected_bytes =
    { expected = expected_bytes; seen = Hashtbl.create 64; received = start_byte;
      cells = 0; duplicates = 0;
      next_contig = start_byte / Tor_model.Cell.payload_capacity;
      contig_bytes = start_byte; completed_at = None }

  let advance_contig t =
    let rec go () =
      match Hashtbl.find_opt t.seen t.next_contig with
      | Some length ->
          t.contig_bytes <- t.contig_bytes + length;
          t.next_contig <- t.next_contig + 1;
          go ()
      | None -> ()
    in
    go ()

  let deliver t ~now = function
    | Tor_model.Cell.Relay_data { seq; length; _ } ->
        if Hashtbl.mem t.seen seq then t.duplicates <- t.duplicates + 1
        else begin
          Hashtbl.add t.seen seq length;
          t.received <- t.received + length;
          t.cells <- t.cells + 1;
          if seq = t.next_contig then advance_contig t;
          if t.received >= t.expected && t.completed_at = None then
            t.completed_at <- Some now
        end
    | Tor_model.Cell.Relay_sendme _ | Tor_model.Cell.Relay_end _ -> ()
end

(* Random streams (cell count, final cell length, cell-aligned resume
   offset) and delivery orders: every cell from the resume point on,
   plus random extra seqs that arrive as duplicates, shuffled
   together.  After every delivery the two sinks must agree on every
   observable. *)
let prop_sink_matches_reference =
  QCheck2.Test.make ~count:300 ~name:"array sink agrees with the Hashtbl reference"
    QCheck2.Gen.(
      let* cells = int_range 1 40 in
      let* last_length = int_range 1 Tor_model.Cell.payload_capacity in
      let* first = int_range 0 (cells - 1) in
      let* extra = list_size (int_range 0 (2 * cells)) (int_range 0 (cells - 1)) in
      let+ order = shuffle_l (extra @ List.init (cells - first) (fun i -> first + i)) in
      (cells, last_length, first, order))
    (fun (cells, last_length, first, order) ->
      let capacity = Tor_model.Cell.payload_capacity in
      let expected_bytes = ((cells - 1) * capacity) + last_length in
      let start_byte = first * capacity in
      let sink = Tor_model.Stream.Sink.create ~start_byte ~expected_bytes () in
      let reference = Reference_sink.create ~start_byte ~expected_bytes in
      let agree () =
        Tor_model.Stream.Sink.received_bytes sink = reference.received
        && Tor_model.Stream.Sink.delivered_bytes sink = reference.contig_bytes
        && Tor_model.Stream.Sink.cells_received sink = reference.cells
        && Tor_model.Stream.Sink.duplicates sink = reference.duplicates
        && Tor_model.Stream.Sink.completed_at sink = reference.completed_at
      in
      List.for_all
        (fun (i, seq) ->
          let length = if seq = cells - 1 then last_length else capacity in
          let cmd =
            Tor_model.Cell.Relay_data { stream_id = 0; seq; length; last = seq = cells - 1 }
          in
          let now = Engine.Time.ms i in
          Tor_model.Stream.Sink.deliver sink ~now cmd;
          Reference_sink.deliver reference ~now cmd;
          agree ())
        (List.mapi (fun i seq -> (i, seq)) order)
      && Tor_model.Stream.Sink.complete sink)

(* ------------------------------------------------------------------ *)
(* Legacy SENDME transport *)

let sendme_setup ?(bytes = Engine.Units.kib 300) ?config () =
  let sim, _, leaves, sbs = mk_overlay 5 in
  let relays =
    List.init 3 (fun i -> mk_relay ~node:(Netsim.Node_id.to_int leaves.(i + 1)) ~mbit:5 ())
  in
  let circuit =
    Tor_model.Circuit.make ~id:(Tor_model.Circuit_id.of_int 0) ~client:leaves.(0) ~relays
      ~server:leaves.(4)
  in
  let sb_of n =
    let rec find i = if Netsim.Node_id.equal leaves.(i) n then sbs.(i) else find (i + 1) in
    find 0
  in
  let d = Tor_model.Sendme.deploy ~sb_of ~circuit ~bytes ?config () in
  (sim, d)

let test_sendme_completes () =
  let sim, d = sendme_setup () in
  Tor_model.Sendme.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 30);
  Alcotest.(check bool) "complete" true (Tor_model.Sendme.complete d);
  Alcotest.(check bool) "ttlb positive" true
    (match Tor_model.Sendme.time_to_last_byte d with
    | Some t -> Engine.Time.(t > Engine.Time.zero)
    | None -> false);
  Alcotest.(check int) "no duplicate delivery" 0
    (Tor_model.Stream.Sink.duplicates (Tor_model.Sendme.sink d))

let test_sendme_credits () =
  (* A transfer bigger than the initial windows requires SENDMEs. *)
  let sim, d = sendme_setup ~bytes:(498 * 700) () in
  Tor_model.Sendme.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  Alcotest.(check bool) "complete" true (Tor_model.Sendme.complete d);
  Alcotest.(check bool) "sendme credits flowed" true (Tor_model.Sendme.sendmes_received d > 0)

let test_sendme_window_gates () =
  (* With 700 cells to send and a 500-cell stream window, credit must be
     exhausted at some point before completion. *)
  let sim, d = sendme_setup ~bytes:(498 * 700) () in
  Tor_model.Sendme.start d;
  let min_credit = ref max_int in
  Engine.Sim.every sim (Engine.Time.ms 10)
    (fun () -> min_credit := Stdlib.min !min_credit (Tor_model.Sendme.client_credit d))
    ~stop:(fun () -> Tor_model.Sendme.complete d);
  Engine.Sim.run sim ~until:(Engine.Time.s 60);
  Alcotest.(check bool) "credit hit zero" true (!min_credit = 0)

let test_sendme_config_validation () =
  Alcotest.(check bool) "bad increment rejected" true
    (match
       sendme_setup
         ~config:
           { Tor_model.Sendme.circuit_window = 10; stream_window = 10;
             circuit_increment = 20; stream_increment = 5 }
         ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_sendme_cell_latency () =
  let sim, d = sendme_setup () in
  Tor_model.Sendme.start d;
  Engine.Sim.run sim ~until:(Engine.Time.s 30);
  let lat = Tor_model.Sendme.cell_latency_stats d in
  Alcotest.(check int) "one sample per cell"
    (Tor_model.Stream.Sink.cells_received (Tor_model.Sendme.sink d))
    (Engine.Stats.Online.count lat);
  Alcotest.(check bool) "positive latencies" true (Engine.Stats.Online.min lat > 0.)

(* ------------------------------------------------------------------ *)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_peel_inverse_of_wrap; prop_source_conserves_bytes; prop_sink_matches_reference ]

let () =
  Alcotest.run "tor_model"
    [
      ( "cells",
        [
          Alcotest.test_case "circuit ids" `Quick test_circuit_id;
          Alcotest.test_case "sizes" `Quick test_cell_sizes;
          Alcotest.test_case "data validation" `Quick test_cell_data_validation;
          Alcotest.test_case "predicates" `Quick test_cell_predicates;
        ] );
      ( "crypto",
        [
          Alcotest.test_case "wrap and peel" `Quick test_crypto_wrap_peel;
          Alcotest.test_case "errors" `Quick test_crypto_errors;
        ] );
      ( "directory",
        [
          Alcotest.test_case "relay flags" `Quick test_relay_flags;
          Alcotest.test_case "distinct relays" `Slow test_directory_select_distinct;
          Alcotest.test_case "flags honoured" `Slow test_directory_flags_honoured;
          Alcotest.test_case "bandwidth bias" `Slow test_directory_bandwidth_bias;
          Alcotest.test_case "impossible constraints" `Quick test_directory_impossible;
          Alcotest.test_case "exclusion honoured" `Slow test_directory_exclude;
          Alcotest.test_case "uniform selection" `Slow test_directory_uniform_selection;
          Alcotest.test_case "selection strings" `Quick test_selection_strings;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "structure" `Quick test_circuit_structure;
          Alcotest.test_case "validation" `Quick test_circuit_validation;
        ] );
      ( "switchboard",
        [
          Alcotest.test_case "dispatch" `Quick test_switchboard_dispatch;
          Alcotest.test_case "orphans and control" `Quick
            test_switchboard_orphans_and_control;
          Alcotest.test_case "unregister" `Quick test_switchboard_unregister;
          Alcotest.test_case "down black-holes" `Quick test_switchboard_down;
        ] );
      ( "control_plane",
        [
          Alcotest.test_case "establishment" `Quick test_circuit_establishment;
          Alcotest.test_case "timeout cleans half-built prefix" `Quick
            test_builder_timeout_destroys_prefix;
          Alcotest.test_case "establishment timeout" `Quick
            test_circuit_establishment_timeout;
          Alcotest.test_case "destroy propagates" `Quick test_destroy_propagates;
          Alcotest.test_case "crash and restart" `Quick test_relay_crash_and_restart;
        ] );
      ( "streams",
        [
          Alcotest.test_case "source slicing" `Quick test_source_slicing;
          Alcotest.test_case "resume offset" `Quick test_stream_resume_offset;
          Alcotest.test_case "offset validation" `Quick test_stream_offset_validation;
          Alcotest.test_case "sink dedup and completion" `Quick
            test_sink_dedup_and_completion;
          Alcotest.test_case "sink rejects out-of-range seq" `Quick
            test_sink_seq_out_of_range;
        ] );
      ( "sendme",
        [
          Alcotest.test_case "completes" `Quick test_sendme_completes;
          Alcotest.test_case "credits" `Quick test_sendme_credits;
          Alcotest.test_case "window gates" `Quick test_sendme_window_gates;
          Alcotest.test_case "config validation" `Quick test_sendme_config_validation;
          Alcotest.test_case "cell latency" `Quick test_sendme_cell_latency;
        ] );
      ("properties", qtests);
    ]
