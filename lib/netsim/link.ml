type drop_counts = { queue_full : int; fault_injected : int; outage : int }

type t = {
  sim : Engine.Sim.t;
  src : Node_id.t;
  dst : Node_id.t;
  mutable rate : Engine.Units.Rate.t;
  delay : Engine.Time.t;
  queue : Nqueue.t;
  flights : flight_pool;
  mutable receiver : (Packet.t -> unit) option;
  mutable busy : bool;
  mutable up : bool;
  (* Fault-injection hook: [true] means "lose this packet in flight".
     Consulted once per packet, at the end of its serialization. *)
  mutable fault_filter : (Packet.t -> bool) option;
  mutable delivered : int;
  mutable delivered_bytes : int;
  mutable blackholed : int;
  mutable fault_drops : int;
  mutable outage_drops : int;
  (* Conservation bookkeeping: [accepted] counts every packet handed to
     [send] (whether it is then queued, transmitted or dropped);
     [in_flight] counts packets past serialization, propagating towards
     the receiver.  At any instant
       accepted = delivered + blackholed + queue_full + fault + outage
                  + queue_length + (serializing ? 1 : 0) + in_flight
     which the invariant oracles check. *)
  mutable accepted : int;
  mutable in_flight : int;
  mutable busy_time : Engine.Time.t;
  (* The packet currently serializing ([Packet.placeholder] when idle),
     and the one preallocated, reusable tx-done timer that finishes it:
     links move one cell at a time, so the hot path rearms a single
     intrusive timer per link — no closure, no queue entry, no handle
     allocated per cell. *)
  mutable serializing : Packet.t;
  mutable tx_timer : Engine.Sim.Timer.t;
}

(* A packet propagating along a link: one reusable timer bound to a
   record that names the link and the packet.  Records are pooled
   across every link sharing the pool (a topology shares one), so the
   pool holds the network-wide peak of packets in flight, not a sum of
   per-link peaks. *)
and flight = {
  mutable link : t;
  mutable pkt : Packet.t;
  mutable timer : Engine.Sim.Timer.t;
}

and flight_pool = {
  fp_sim : Engine.Sim.t;
  mutable free : flight array;
  mutable nfree : int;
  mutable records : int;
}

let flight_pool sim = { fp_sim = sim; free = [||]; nfree = 0; records = 0 }
let flight_records pool = pool.records

let release_flight pool fl =
  if pool.nfree = Array.length pool.free then begin
    let free = Array.make (Stdlib.max 16 (2 * pool.nfree)) fl in
    Array.blit pool.free 0 free 0 pool.nfree;
    pool.free <- free
  end;
  pool.free.(pool.nfree) <- fl;
  pool.nfree <- pool.nfree + 1

let deliver t (p : Packet.t) =
  t.in_flight <- t.in_flight - 1;
  match t.receiver with
  | None -> t.blackholed <- t.blackholed + 1
  | Some f ->
      t.delivered <- t.delivered + 1;
      t.delivered_bytes <- t.delivered_bytes + p.size;
      f p

(* The propagation delay elapsed: the record goes back to the pool
   before the receiver runs, so a forwarding chain reuses it. *)
let arrive_flight pool fl =
  let t = fl.link and p = fl.pkt in
  fl.pkt <- Packet.placeholder;
  release_flight pool fl;
  deliver t p

(* Arm a pooled record for [p] on [t]: the same instant and insertion
   order as scheduling a fresh delivery event would take. *)
let propagate t p =
  let pool = t.flights in
  let fl =
    if pool.nfree > 0 then begin
      pool.nfree <- pool.nfree - 1;
      pool.free.(pool.nfree)
    end
    else begin
      pool.records <- pool.records + 1;
      let fl = { link = t; pkt = p; timer = t.tx_timer } in
      fl.timer <- Engine.Sim.Timer.create pool.fp_sim (fun () -> arrive_flight pool fl);
      fl
    end
  in
  fl.link <- t;
  fl.pkt <- p;
  Engine.Sim.Timer.arm_after t.sim fl.timer t.delay

(* Serialize [p]; when its last bit is on the wire ([finish_tx]),
   start its propagation and the next queued packet.  At that instant
   the faults act: a link that went down mid-flight kills the packet
   (outage), and the fault filter may lose it — the capacity was
   consumed either way, which is what distinguishes wire loss from a
   tail drop. *)
let rec finish_tx t =
  let p = t.serializing in
  (if not t.up then t.outage_drops <- t.outage_drops + 1
   else
     match t.fault_filter with
     | Some drop when drop p -> t.fault_drops <- t.fault_drops + 1
     | _ ->
         t.in_flight <- t.in_flight + 1;
         propagate t p);
  if Nqueue.is_empty t.queue then begin
    t.serializing <- Packet.placeholder;
    t.busy <- false
  end
  else
    let on_transmit = Nqueue.head_on_transmit t.queue in
    transmit t (Nqueue.take t.queue) on_transmit

(* [on_transmit] fires, with the packet's id, the moment its
   serialization starts — when it is truly on the wire. *)
and transmit t (p : Packet.t) on_transmit =
  t.busy <- true;
  t.serializing <- p;
  (match on_transmit with Some f -> f p.id | None -> ());
  let tx_time = Engine.Units.Rate.transmission_time t.rate p.size in
  t.busy_time <- Engine.Time.add t.busy_time tx_time;
  (* At most one cell serializes at a time ([t.busy]), so the single
     tx-done timer is never armed here while still pending. *)
  Engine.Sim.Timer.arm_after t.sim t.tx_timer tx_time

let create sim ~src ~dst ~rate ~delay ?(queue = Nqueue.unbounded) ?flights () =
  if Engine.Time.is_negative delay then invalid_arg "Link.create: negative delay";
  let flights = match flights with Some f -> f | None -> flight_pool sim in
  let t =
    {
      sim;
      src;
      dst;
      rate;
      delay;
      queue = Nqueue.create queue;
      flights;
      receiver = None;
      busy = false;
      up = true;
      fault_filter = None;
      delivered = 0;
      delivered_bytes = 0;
      blackholed = 0;
      fault_drops = 0;
      outage_drops = 0;
      busy_time = Engine.Time.zero;
      accepted = 0;
      in_flight = 0;
      serializing = Packet.placeholder;
      tx_timer = Engine.Sim.Timer.create sim ignore;
    }
  in
  t.tx_timer <- Engine.Sim.Timer.create sim (fun () -> finish_tx t);
  t

let src t = t.src
let dst t = t.dst
let rate t = t.rate
let delay t = t.delay
let set_receiver t f = t.receiver <- Some f
let set_fault_filter t f = t.fault_filter <- f
let set_up t up = t.up <- up
let is_up t = t.up

let send t ?on_transmit p =
  t.accepted <- t.accepted + 1;
  if not t.up then
    (* The link is cut: the packet never reaches the transmitter, so
       [on_transmit] must not fire (same contract as a tail drop). *)
    t.outage_drops <- t.outage_drops + 1
  else if t.busy then
    (* The callback waits in the queue slot with its packet; a tail
       drop discards both. *)
    ignore (Nqueue.push t.queue p on_transmit : bool)
  else transmit t p on_transmit

let busy t = t.busy
let queue_length t = Nqueue.length t.queue
let queue_drops t = Nqueue.drops t.queue
let queue_high_watermark_bytes t = Nqueue.high_watermark_bytes t.queue
let packets_delivered t = t.delivered
let bytes_delivered t = t.delivered_bytes
let packets_blackholed t = t.blackholed
let packets_accepted t = t.accepted
let packets_in_flight t = t.in_flight
let fault_drops t = t.fault_drops
let outage_drops t = t.outage_drops

let drop_counts t =
  { queue_full = Nqueue.drops t.queue;
    fault_injected = t.fault_drops;
    outage = t.outage_drops }

let total_drops c = c.queue_full + c.fault_injected + c.outage

let add_drop_counts a b =
  { queue_full = a.queue_full + b.queue_full;
    fault_injected = a.fault_injected + b.fault_injected;
    outage = a.outage + b.outage }

let sum_drop_counts links =
  Array.fold_left
    (fun acc l -> add_drop_counts acc (drop_counts l))
    { queue_full = 0; fault_injected = 0; outage = 0 }
    links

let pp_drop_counts fmt d =
  Format.fprintf fmt "{queue-full %d; fault %d; outage %d}" d.queue_full
    d.fault_injected d.outage

let set_rate t rate = t.rate <- rate

let utilization t horizon =
  if Engine.Time.(horizon <= Engine.Time.zero) then
    invalid_arg "Link.utilization: horizon must be positive";
  Float.min 1. (Engine.Time.ratio t.busy_time horizon)

let pp fmt t =
  Format.fprintf fmt "%a->%a %a %a q=%d%s" Node_id.pp t.src Node_id.pp t.dst
    Engine.Units.Rate.pp t.rate Engine.Time.pp t.delay (queue_length t)
    (if t.up then "" else " DOWN")
