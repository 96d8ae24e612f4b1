(* Growable per-node out-link arrays, in insertion order. *)
type out = { mutable links : Link.t array; mutable degree : int }

type t = {
  sim : Engine.Sim.t;
  ids : Packet.id_state;
  (* Propagation records shared by every link of the topology: the pool
     holds at most the network-wide peak of packets in flight. *)
  flights : Link.flight_pool;
  mutable node_names : string array;
  (* Directed adjacency: out.(a) is the outgoing links of node a, in
     insertion order. *)
  mutable out : out array;
  (* Every directed link by its (source, destination) pair, so finding
     one costs the same at a hub as at a leaf. *)
  by_ends : (int * int, Link.t) Hashtbl.t;
  mutable count : int;
  (* Nodes in the order they gained their first outgoing link; see
     [links]. *)
  mutable sources : int list;
  (* [links]' array, built on the first call after a [connect]. *)
  mutable all_links : Link.t array;
  mutable all_links_fresh : bool;
}

let create sim =
  { sim; ids = Packet.fresh_id_state (); flights = Link.flight_pool sim;
    node_names = [||]; out = [||]; by_ends = Hashtbl.create 64; count = 0; sources = [];
    all_links = [||]; all_links_fresh = true }

let sim t = t.sim
let packet_ids t = t.ids

let add_node t ~name =
  let o = { links = [||]; degree = 0 } in
  if t.count = Array.length t.node_names then begin
    let ncap = Stdlib.max 16 (t.count * 2) in
    let names = Array.make ncap "" in
    Array.blit t.node_names 0 names 0 t.count;
    t.node_names <- names;
    let out = Array.make ncap o in
    Array.blit t.out 0 out 0 t.count;
    t.out <- out
  end;
  t.node_names.(t.count) <- name;
  t.out.(t.count) <- o;
  let id = Node_id.of_int t.count in
  t.count <- t.count + 1;
  id

let node_count t = t.count
let nodes t = List.init t.count Node_id.of_int

let check_node t id =
  if Node_id.to_int id >= t.count then
    invalid_arg (Format.asprintf "Topology: unknown node %a" Node_id.pp id)

let name t id =
  if Node_id.to_int id >= t.count then raise Not_found;
  t.node_names.(Node_id.to_int id)

let link t a b = Hashtbl.find_opt t.by_ends (Node_id.to_int a, Node_id.to_int b)

let connect_directed t a b ~rate ~delay ?(queue = Nqueue.unbounded) () =
  check_node t a;
  check_node t b;
  if Node_id.equal a b then invalid_arg "Topology.connect: self-loop";
  if Hashtbl.mem t.by_ends (Node_id.to_int a, Node_id.to_int b) then
    invalid_arg
      (Format.asprintf "Topology.connect: %a->%a already connected" Node_id.pp a
         Node_id.pp b);
  let l = Link.create t.sim ~src:a ~dst:b ~rate ~delay ~queue ~flights:t.flights () in
  let o = t.out.(Node_id.to_int a) in
  if o.degree = 0 then t.sources <- Node_id.to_int a :: t.sources;
  if o.degree = Array.length o.links then begin
    let ncap = Stdlib.max 1 (2 * o.degree) in
    let links = Array.make ncap l in
    Array.blit o.links 0 links 0 o.degree;
    o.links <- links
  end;
  o.links.(o.degree) <- l;
  Hashtbl.add t.by_ends (Node_id.to_int a, Node_id.to_int b) l;
  o.degree <- o.degree + 1;
  t.all_links_fresh <- false

let connect t a b ~rate ~delay ?queue () =
  connect_directed t a b ~rate ~delay ?queue ();
  connect_directed t b a ~rate ~delay ?queue ()

(* The node's own array when it has no spare capacity, else a copy.
   Capacity grows 1, 2, 4, ..., so a node with one link (every leaf of
   a star) is read in place.  Storing a trimmed copy back would hand
   the old topology a young array to promote. *)
let out_links t a =
  check_node t a;
  let o = t.out.(Node_id.to_int a) in
  if Array.length o.links > o.degree then Array.sub o.links 0 o.degree else o.links

let neighbors t a =
  let a = Node_id.to_int a in
  if a >= t.count then []
  else List.init t.out.(a).degree (fun i -> Link.dst t.out.(a).links.(i))

(* The enumeration order is part of the observable behaviour: fault
   schedules draw per link in this order, and float sums over links
   depend on it.  It is the order of the [Hashtbl] of per-node lists
   this topology used to keep — source nodes in that table's bucket
   order, each node's links reversed — so the table is rebuilt from the
   same insertion sequence, once per change of the link set, and the
   array is kept for every later call. *)
let links t =
  if not t.all_links_fresh then begin
    let order = Hashtbl.create 64 in
    List.iter (fun a -> Hashtbl.add order a ()) (List.rev t.sources);
    t.all_links <-
      Array.of_list
        (Hashtbl.fold
           (fun a () acc ->
             let o = t.out.(a) in
             let rec rev_prepend i acc =
               if i = o.degree then acc
               else rev_prepend (i + 1) (o.links.(i) :: acc)
             in
             rev_prepend 0 acc)
           order []);
    t.all_links_fresh <- true
  end;
  t.all_links

let line sim ~names ~rate ~delay ?queue () =
  if List.length names < 2 then invalid_arg "Topology.line: need at least two nodes";
  let t = create sim in
  let ids = List.map (fun name -> add_node t ~name) names in
  let rec wire = function
    | a :: (b :: _ as rest) ->
        connect t a b ~rate ~delay ?queue ();
        wire rest
    | [ _ ] | [] -> ()
  in
  wire ids;
  (t, ids)

let star sim ~hub ~leaves ?queue () =
  if leaves = [] then invalid_arg "Topology.star: no leaves";
  let t = create sim in
  let hub_id = add_node t ~name:hub in
  let leaf_ids =
    List.map
      (fun (name, rate, delay) ->
        let id = add_node t ~name in
        connect t id hub_id ~rate ~delay ?queue ();
        id)
      leaves
  in
  (t, hub_id, leaf_ids)
