type t = {
  topo : Topology.t;
  (* A node with exactly one out-link, whose neighbour at the far end
     has two or more, reaches every other node only through that link:
     uplink.(a) is the link, and routes.(a) is the shared empty row.
     Every other node has uplink.(a) == no_route and a full row:
     routes.(a).(b) is its outgoing link on the route to b, or
     [no_route] when b is unreachable or b = a.  In a star only the hub
     has a row, so the state is linear in the node count, and
     forwarding is at most three array reads (see [next_link]). *)
  uplink : Link.t array;
  routes : Link.t array array;
  no_route : Link.t;
  local : (Packet.t -> unit) option array;
  mutable undeliverable : int;
}

(* The nodes that forward everything over their one out-link: a single
   out-link whose far end has two or more out-links of its own.  The
   neighbour then keeps a row, so a lookup needs one indirection at
   most.  Two single-link nodes facing each other (a 2-node component,
   the end of a one-way chain) keep rows instead. *)
let single_uplink ~out a =
  Array.length out.(a) = 1
  && Array.length out.(Node_id.to_int (Link.dst out.(a).(0))) >= 2

(* Dijkstra from every node that needs a row.  Cost = propagation delay
   in ns, with one extra ns per hop so equal-delay routes prefer fewer
   hops.  The frontier is a binary min-heap of (distance, node) pairs
   in lexicographic order, so equal distances pop in node-id order and
   the routes are deterministic.  Returns the rows: routes.(src).(dst)
   is src's link toward the first hop of the route, or [no_route] if
   dst is unreachable or dst = src; nodes with an uplink share the
   empty row.  Each row is written straight from its shortest-path tree
   through one reused [toward] row. *)
let compute_routes ~out ~uplink ~no_route =
  let n = Array.length out in
  let routes = Array.make n [||] in
  (* toward.(v) is the current source's link to neighbour v. *)
  let toward = Array.make n no_route in
  (* Each edge is relaxed at most once per source: one push per edge
     plus the source bounds the heap. *)
  let cap = 1 + Array.fold_left (fun acc ls -> acc + Array.length ls) 0 out in
  let heap_d = Array.make cap 0 and heap_v = Array.make cap 0 in
  let size = ref 0 in
  let before i j =
    heap_d.(i) < heap_d.(j) || (heap_d.(i) = heap_d.(j) && heap_v.(i) < heap_v.(j))
  in
  let swap i j =
    let d = heap_d.(i) and v = heap_v.(i) in
    heap_d.(i) <- heap_d.(j);
    heap_v.(i) <- heap_v.(j);
    heap_d.(j) <- d;
    heap_v.(j) <- v
  in
  let push d v =
    let i = ref !size in
    heap_d.(!i) <- d;
    heap_v.(!i) <- v;
    incr size;
    while !i > 0 && before !i ((!i - 1) / 2) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let v = heap_v.(0) in
    decr size;
    heap_d.(0) <- heap_d.(!size);
    heap_v.(0) <- heap_v.(!size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let m = if l < !size && before l !i then l else !i in
      let m = if l + 1 < !size && before (l + 1) m then l + 1 else m in
      if m = !i then continue := false
      else begin
        swap !i m;
        i := m
      end
    done;
    v
  in
  let dist = Array.make n max_int in
  let prev = Array.make n (-1) in
  let visited = Array.make n false in
  for src = 0 to n - 1 do
    if uplink.(src) == no_route then begin
      Array.fill dist 0 n max_int;
      Array.fill prev 0 n (-1);
      Array.fill visited 0 n false;
      dist.(src) <- 0;
      push 0 src;
      while !size > 0 do
        let u = pop () in
        if not visited.(u) then begin
          visited.(u) <- true;
          (* A plain loop: an [Array.iter] closure here would capture [u]
             and be allocated once per visited node. *)
          let links = out.(u) in
          for k = 0 to Array.length links - 1 do
            let l = links.(k) in
            let v = Node_id.to_int (Link.dst l) in
            let alt = dist.(u) + (Link.delay l :> int) + 1 in
            if alt < dist.(v) then begin
              dist.(v) <- alt;
              prev.(v) <- u;
              push alt v
            end
          done
        end
      done;
      (* First hop toward each destination: walk prev back to src. *)
      let links = out.(src) in
      for k = 0 to Array.length links - 1 do
        toward.(Node_id.to_int (Link.dst links.(k))) <- links.(k)
      done;
      let row = Array.make n no_route in
      for dst = 0 to n - 1 do
        if dst <> src && prev.(dst) >= 0 then begin
          let hop = ref dst in
          while prev.(!hop) <> src && prev.(!hop) >= 0 do
            hop := prev.(!hop)
          done;
          if prev.(!hop) = src then row.(dst) <- toward.(!hop)
        end
      done;
      for k = 0 to Array.length links - 1 do
        toward.(Node_id.to_int (Link.dst links.(k))) <- no_route
      done;
      routes.(src) <- row
    end
  done;
  routes

(* [a]'s outgoing link on the route to [b <> a], or [no_route]. *)
let next_link t a b =
  let up = t.uplink.(a) in
  if up == t.no_route then t.routes.(a).(b)
  else
    let via = Node_id.to_int (Link.dst up) in
    if b = via || t.routes.(via).(b) != t.no_route then up else t.no_route

let create topo =
  let n = Topology.node_count topo in
  let no_route =
    Link.create (Topology.sim topo) ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 0)
      ~rate:(Engine.Units.Rate.mbit 1) ~delay:Engine.Time.zero ()
  in
  let out = Array.init n (fun i -> Topology.out_links topo (Node_id.of_int i)) in
  let uplink =
    Array.init n (fun a -> if single_uplink ~out a then out.(a).(0) else no_route)
  in
  let routes = compute_routes ~out ~uplink ~no_route in
  let t = { topo; uplink; routes; no_route; local = Array.make n None; undeliverable = 0 } in
  (* Claim every link (each is some node's out-link): arriving packets
     are either delivered locally or forwarded along the precomputed
     route. *)
  let arrive node (p : Packet.t) =
    let node_i = Node_id.to_int node in
    if Node_id.equal node p.dst then
      match t.local.(node_i) with
      | Some f -> f p
      | None -> t.undeliverable <- t.undeliverable + 1
    else
      let l = next_link t node_i (Node_id.to_int p.dst) in
      if l == t.no_route then
        failwith
          (Format.asprintf "Network: no route from %a to %a" Node_id.pp node Node_id.pp
             p.dst)
      else Link.send l p
  in
  Array.iter
    (Array.iter (fun l -> Link.set_receiver l (fun p -> arrive (Link.dst l) p)))
    out;
  t

let topology t = t.topo
let sim t = Topology.sim t.topo

let set_local_handler t n f = t.local.(Node_id.to_int n) <- Some f

let make_packet t ~src ~dst ~size payload =
  Packet.make (Topology.packet_ids t.topo) ~src ~dst ~size
    ~now:(Engine.Sim.now (sim t)) payload

let next_packet_id t = Packet.next_id (Topology.packet_ids t.topo)

let send t ?on_transmit (p : Packet.t) =
  let src_i = Node_id.to_int p.src and dst_i = Node_id.to_int p.dst in
  if src_i = dst_i then
    (* Loopback: deliver after the current event finishes, preserving
       event-driven semantics. *)
    ignore
      (Engine.Sim.schedule_now (sim t) (fun () ->
           (match on_transmit with Some f -> f p.id | None -> ());
           match t.local.(dst_i) with
           | Some f -> f p
           | None -> t.undeliverable <- t.undeliverable + 1))
  else
    let l = next_link t src_i dst_i in
    if l == t.no_route then
      failwith
        (Format.asprintf "Network.send: no route from %a to %a" Node_id.pp p.src
           Node_id.pp p.dst)
    else Link.send l ?on_transmit p

(* [Some] of [f] folded over the links of the route from [a] to [b],
   first hop first, or [None] if [b] is unreachable from [a]. *)
let fold_route t a b f acc =
  let b = Node_id.to_int b in
  let rec go node acc =
    if node = b then Some acc
    else
      let l = next_link t node b in
      if l == t.no_route then None else go (Node_id.to_int (Link.dst l)) (f acc l)
  in
  go (Node_id.to_int a) acc

let path t a b =
  Option.map List.rev (fold_route t a b (fun acc l -> Link.dst l :: acc) [ a ])

let undeliverable t = t.undeliverable
