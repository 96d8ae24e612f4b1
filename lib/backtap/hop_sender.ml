(* In-flight cell state.  Pendings are pooled: a sender allocates one
   per concurrently-inflight cell and recycles it on feedback, so the
   steady-state forwarding path allocates no pending records, no timer
   entries and no callback closures — the two closures below ([timer]'s
   callback and [send_action]) are created once per pooled record and
   reused for every cell that passes through it.  The backlog, the
   in-flight table and the pool are arrays that only grow, so once a
   sender has seen its peak window it allocates nothing per cell. *)
type pending = {
  mutable cell : Tor_model.Cell.t;
  mutable hop_seq : int;
  mutable transmitted : bool;  (* has left this node's access link *)
  mutable sent_at : Engine.Time.t;  (* wire-departure instant *)
  mutable retransmitted : bool;
  mutable backoff : int;  (* doublings applied to the next RTO *)
  mutable attempts : int;  (* retransmissions of this cell so far *)
  mutable on_wire : bool;  (* did the current attempt reach the wire? *)
  (* Handed to the sender's [forward_ack] on first transmission: the
     index the owner passed to [forward] (a relay's upstream hop
     sequence); -1 for a cell queued with [submit], which acks
     nothing. *)
  mutable ack_seq : int;
  mutable in_use : bool;  (* false once recycled into the pool *)
  (* Packet-id watermark of the current incarnation: the network's
     next packet id, stamped in [pump] before the first attempt is
     sent.  Every attempt of this incarnation gets an id >= the
     watermark; every packet of an earlier incarnation has a smaller
     one.  [transmit_done] uses it to reject stale wire-departure
     callbacks: a queued attempt's callback rides with its packet in
     the link's queue after feedback recycles this record (the link
     cannot withdraw it), so a leftover packet of a previous
     incarnation can still serialize later and fire [send_action]
     against the reused record. *)
  mutable wire_floor : int;
  (* One reusable clock per pending, serving as both the queued-drop
     watchdog and the retransmission timer — the two are never armed at
     once, so a single intrusive timer rearmed in place replaces the
     cancel-and-reschedule pair of the old design. *)
  mutable timer : Engine.Sim.Timer.t;
  (* Preallocated wire-departure callback handed to the switchboard on
     every attempt, already wrapped as the optional argument it is
     passed as; receives the departing packet's id. *)
  mutable send_action : (int -> unit) option;
}

type probe_event =
  | Wire_departure of {
      pkt_id : int;
      in_use : bool;
      wire_floor : int;
      applied : bool;
    }
  | Feedback of { hop_seq : int; next_hop_seq : int; known : bool }

(* Test-only escape hatch: checked law experiments flip this to
   re-create the pre-watermark behaviour (every wire-departure callback
   applied, stale or not) and watch the incarnation oracle catch it.
   Never set outside the harness. *)
let unsafe_disable_wire_floor = ref false

type t = {
  sb : Tor_model.Switchboard.t;
  net : Netsim.Network.t;
  circuit : Tor_model.Circuit_id.t;
  succ : Netsim.Node_id.t;
  controller : Circuitstart.Controller.t;
  sim : Engine.Sim.t;
  rto_min : Engine.Time.t;
  rto_initial : Engine.Time.t;
  max_retries : int;
  (* Backlog ring: [bl_len] cells from [bl_head], each with its
     [ack_seq] (see [pending.ack_seq]) in the parallel array.  Doubled
     when full, never shrunk. *)
  mutable bl_cells : Tor_model.Cell.t array;
  mutable bl_seqs : int array;
  mutable bl_head : int;
  mutable bl_len : int;
  (* In-flight table, indexed by hop sequence: the pending of sequence
     [s] sits in slot [s land (Array.length slots - 1)] (or the slot
     holds [vacant]).  Every live sequence lies in
     [\[lowest, next_seq)], a span the table is kept wider than. *)
  mutable slots : pending array;
  mutable lowest : int;
  mutable live : int;
  vacant : pending;
  (* Recycled pendings, a stack in [free.(0 .. nfree - 1)]. *)
  mutable free : pending array;
  mutable nfree : int;
  (* The ack of a cell queued with {!forward}: the sender's one
     callback, applied to the cell's [ack_seq]. *)
  mutable forward_ack : int -> unit;
  mutable next_seq : int;
  mutable sent : int;
  mutable retx : int;
  mutable spurious : int;
  mutable feedbacks : int;  (* feedbacks accepted (matched an inflight cell) *)
  (* Passive observer of wire departures and feedbacks, for invariant
     oracles.  Must not call back into the sender. *)
  mutable probe : (probe_event -> unit) option;
  mutable aborted : bool;
  mutable on_abort : (unit -> unit) option;
  (* Bytes currently charged against the switchboard's per-circuit
     occupancy (backlog + in flight, at Wire.cell_size per cell).
     Credited cell-by-cell on feedback and wholesale on abort, so the
     relay's resource accounting always matches this sender's held
     state. *)
  mutable charged : int;
  (* Jacobson/Karels estimator state, in seconds. *)
  est : estimator;
}

(* All-float, so updating it allocates nothing. *)
and estimator = {
  mutable srtt : float;  (* nan until the first sample *)
  mutable rttvar : float;
}

(* A pending holding nothing; [cell] is a placeholder that is never
   sent. *)
let blank_pending circuit timer =
  {
    cell = Tor_model.Cell.make circuit Tor_model.Cell.Destroy;
    hop_seq = -1;
    transmitted = false;
    sent_at = Engine.Time.zero;
    retransmitted = false;
    backoff = 0;
    attempts = 0;
    on_wire = false;
    ack_seq = -1;
    in_use = false;
    wire_floor = max_int;
    timer;
    send_action = None;
  }

let create ~sb ~circuit ~succ ~controller ?(rto_min = Engine.Time.ms 400)
    ?(rto_initial = Engine.Time.s 1) ?(max_retries = 8) () =
  if max_retries < 1 then invalid_arg "Hop_sender.create: max_retries must be positive";
  let net = Tor_model.Switchboard.network sb in
  let sim = Netsim.Network.sim net in
  let vacant = blank_pending circuit (Engine.Sim.Timer.create sim ignore) in
  {
    sb;
    net;
    circuit;
    succ;
    controller;
    sim;
    rto_min;
    rto_initial;
    max_retries;
    bl_cells = Array.make 16 vacant.cell;
    bl_seqs = Array.make 16 (-1);
    bl_head = 0;
    bl_len = 0;
    slots = Array.make 16 vacant;
    lowest = 0;
    live = 0;
    vacant;
    free = [||];
    nfree = 0;
    forward_ack = ignore;
    next_seq = 0;
    sent = 0;
    retx = 0;
    spurious = 0;
    feedbacks = 0;
    probe = None;
    aborted = false;
    on_abort = None;
    charged = 0;
    est = { srtt = Float.nan; rttvar = 0. };
  }

let controller t = t.controller
let cwnd t = Circuitstart.Controller.cwnd t.controller
let inflight t = t.live
let queue_length t = t.bl_len
let cells_sent t = t.sent
let retransmissions t = t.retx
let spurious_feedback t = t.spurious
let feedback_received t = t.feedbacks
let next_hop_seq t = t.next_seq
let set_probe t f = t.probe <- f
let idle t = t.bl_len = 0 && t.live = 0
let aborted t = t.aborted
let set_on_abort t f = t.on_abort <- Some f
let charged_bytes t = t.charged

let set_forward_ack t f = t.forward_ack <- f

(* [Engine.Time.of_sec_f] and [to_sec_f], restated so they inline: a
   float crossing the module boundary is boxed. *)
let[@inline] time_of_sec x =
  if not (Float.is_finite x) then invalid_arg "Time: non-finite duration";
  let r = Float.round (x *. 1e9) in
  if r >= 4611686018427387904. then Engine.Time.max_value
  else if r <= -4611686018427387904. then Engine.Time.ns min_int
  else Engine.Time.ns (int_of_float r)

let[@inline] sec_of_time (x : Engine.Time.t) = float_of_int (x :> int) /. 1e9

let srtt t = if Float.is_nan t.est.srtt then None else Some (time_of_sec t.est.srtt)

let rto t =
  if Float.is_nan t.est.srtt then t.rto_initial
  else
    let rto = time_of_sec (t.est.srtt +. (4. *. t.est.rttvar)) in
    Engine.Time.max rto t.rto_min

(* --- the in-flight table ------------------------------------------- *)

let slot t seq = seq land (Array.length t.slots - 1)

let find t seq =
  if seq < t.lowest || seq >= t.next_seq then t.vacant
  else
    let p = t.slots.(slot t seq) in
    if p.hop_seq = seq && p != t.vacant then p else t.vacant

(* Insert the pending of the newest sequence, doubling the table first
   if the live span would not fit. *)
let add_inflight t (p : pending) =
  if p.hop_seq - t.lowest >= Array.length t.slots then begin
    let slots = Array.make (2 * Array.length t.slots) t.vacant in
    for seq = t.lowest to p.hop_seq - 1 do
      let q = t.slots.(slot t seq) in
      if q != t.vacant && q.hop_seq = seq then
        slots.(seq land (Array.length slots - 1)) <- q
    done;
    t.slots <- slots
  end;
  t.slots.(slot t p.hop_seq) <- p;
  t.live <- t.live + 1

let remove_inflight t seq =
  t.slots.(slot t seq) <- t.vacant;
  t.live <- t.live - 1;
  if t.live = 0 then t.lowest <- t.next_seq
  else
    while t.slots.(slot t t.lowest) == t.vacant do
      t.lowest <- t.lowest + 1
    done

let max_backoff = 6

(* Kill the sender: disarm every pending timer, drop all state.  Once
   aborted a sender accepts no submissions, transmits nothing and
   ignores feedback. *)
let abort t =
  if not t.aborted then begin
    t.aborted <- true;
    for seq = t.lowest to t.next_seq - 1 do
      let p = find t seq in
      if p != t.vacant then begin
        Engine.Sim.Timer.cancel t.sim p.timer;
        p.in_use <- false;
        t.slots.(slot t seq) <- t.vacant
      end
    done;
    t.live <- 0;
    t.lowest <- t.next_seq;
    for i = 0 to t.bl_len - 1 do
      let j = (t.bl_head + i) land (Array.length t.bl_cells - 1) in
      t.bl_cells.(j) <- t.vacant.cell
    done;
    t.bl_len <- 0;
    (* Release every byte still charged against the node's occupancy
       accounting in one move. *)
    if t.charged > 0 then begin
      let held = t.charged in
      t.charged <- 0;
      Tor_model.Switchboard.credit t.sb t.circuit held
    end
  end

(* Budget exhausted: the successor is unreachable (dead relay, cut
   link, or loss beyond what retransmission can mask).  Give up and
   tell the owner — retransmitting forever would spin the simulation
   without ever completing. *)
let trip t =
  if not t.aborted then begin
    abort t;
    match t.on_abort with Some f -> f () | None -> ()
  end

(* Put the cell on the wire.  All timing is anchored at the actual wire
   departure (the access link's serialization start): the RTT clock and
   the retransmission timer start there, and — on the first
   transmission only — the cell's ack fires there, because that
   instant is this node's act of forwarding (the predecessor's feedback
   is due then, not when the cell was merely queued).  The
   retransmission timer backs off exponentially: Karn's rule freezes
   the estimator during retransmissions, so without backoff an RTO
   below the loaded RTT would retransmit every cell forever
   (congestion collapse).  Each
   cell's retransmissions are bounded by [max_retries]; exhausting the
   budget trips the whole sender into its terminal aborted state. *)
let rec wire_send t (p : pending) =
  p.on_wire <- false;
  Tor_model.Switchboard.send_payload t.sb ~dst:t.succ ~size:Wire.cell_size
    ?on_transmit:p.send_action
    (Wire.Bt_cell { hop_seq = p.hop_seq; cell = p.cell });
  (* Still sitting in our own access link's queue: a tail drop there
     would never fire [send_action], so arm the watchdog so the cell is
     retried unless it makes it onto the wire in the meantime. *)
  if not p.on_wire then begin
    let delay = Engine.Time.mul_int (rto t) (1 lsl p.backoff) in
    Engine.Sim.Timer.arm_after t.sim p.timer delay
  end

(* The pending's timer fired: either the queued-drop watchdog (the
   attempt never reached the wire) or the retransmission timer (it did,
   but no feedback arrived in time).  Both mean the same thing —
   retransmit, or trip the sender once the budget is spent. *)
and on_timer t (p : pending) =
  if (not t.aborted) && p.in_use && find t p.hop_seq == p then begin
    if p.attempts >= t.max_retries then trip t
    else begin
      p.retransmitted <- true;
      p.backoff <- Stdlib.min max_backoff (p.backoff + 1);
      p.attempts <- p.attempts + 1;
      t.retx <- t.retx + 1;
      wire_send t p
    end
  end

(* Wire departure of an attempt: stop the watchdog, stamp the RTT
   clock, run [forward_ack] once per cell, and rearm the same timer as the
   retransmission clock.  Guarded against stale firings (see
   [wire_floor]): a leftover callback from before this record was
   recycled — or one firing while the record sits idle in the pool —
   must be a no-op, or it would ack the wrong cell, consume its
   first-transmit flag, corrupt the RTT clock and rearm its timer.
   Any attempt of the current incarnation passes the watermark test,
   including a firing that happens synchronously inside [wire_send]'s
   send call (its id is the watermark itself or above). *)
and transmit_done t (p : pending) pkt_id =
  let lawful = p.in_use && pkt_id >= p.wire_floor in
  (* With the watermark disabled (harness fault injection) stale
     firings are applied anyway, re-creating the pre-fix bug the
     incarnation oracle exists to catch. *)
  let applied = lawful || (!unsafe_disable_wire_floor && p.in_use) in
  (match t.probe with
  | Some probe ->
      probe
        (Wire_departure { pkt_id; in_use = p.in_use; wire_floor = p.wire_floor; applied })
  | None -> ());
  if applied then begin
    p.on_wire <- true;
    Engine.Sim.Timer.cancel t.sim p.timer;
    let first = not p.transmitted in
    p.transmitted <- true;
    p.sent_at <- Engine.Sim.now t.sim;
    if first && p.ack_seq >= 0 then t.forward_ack p.ack_seq;
    let delay = Engine.Time.mul_int (rto t) (1 lsl p.backoff) in
    Engine.Sim.Timer.arm_after t.sim p.timer delay
  end

(* Take a pending from the pool, or build a fresh one (cold path: only
   when the inflight population reaches a new high).  The placeholder
   cell is never sent — [pump] overwrites it before use. *)
let alloc_pending t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else begin
    let p = blank_pending t.circuit t.vacant.timer in
    p.timer <- Engine.Sim.Timer.create t.sim (fun () -> on_timer t p);
    p.send_action <- Some (fun pkt_id -> transmit_done t p pkt_id);
    p
  end

(* Return a pending to the pool.  The timer is disarmed eagerly, so a
   recycled record can never be fired by a stale clock.  The
   [send_action] of a still-queued attempt cannot be withdrawn here —
   it rides with its packet in the link's queue — but [wire_floor]
   makes any such late firing a no-op, both while the record sits in
   the pool ([in_use] is false) and after it is reused (the stale
   packet's id is below the new incarnation's watermark). *)
let release t p =
  Engine.Sim.Timer.cancel t.sim p.timer;
  p.in_use <- false;
  p.cell <- t.vacant.cell;
  if t.nfree = Array.length t.free then begin
    let free = Array.make (Stdlib.max 8 (2 * t.nfree)) p in
    Array.blit t.free 0 free 0 t.nfree;
    t.free <- free
  end;
  t.free.(t.nfree) <- p;
  t.nfree <- t.nfree + 1

(* Move backlog cells onto the wire while the window allows. *)
let rec pump t =
  if
    (not t.aborted)
    && t.live < Circuitstart.Controller.send_allowance t.controller
    && t.bl_len > 0
  then begin
    let j = t.bl_head in
    let cell = t.bl_cells.(j) and ack_seq = t.bl_seqs.(j) in
    t.bl_cells.(j) <- t.vacant.cell;
    t.bl_head <- (j + 1) land (Array.length t.bl_cells - 1);
    t.bl_len <- t.bl_len - 1;
    let hop_seq = t.next_seq in
    t.next_seq <- hop_seq + 1;
    t.sent <- t.sent + 1;
    let p = alloc_pending t in
    p.cell <- cell;
    p.hop_seq <- hop_seq;
    p.transmitted <- false;
    p.sent_at <- Engine.Sim.now t.sim;
    p.retransmitted <- false;
    p.backoff <- 0;
    p.attempts <- 0;
    p.ack_seq <- ack_seq;
    p.in_use <- true;
    (* Stamp the incarnation watermark before the first attempt: every
       packet this incarnation sends gets an id at or above it, every
       stale callback from a previous incarnation sits below. *)
    p.wire_floor <- Netsim.Network.next_packet_id t.net;
    add_inflight t p;
    wire_send t p;
    pump t
  end

let push_backlog t cell ack_seq =
  if t.bl_len = Array.length t.bl_cells then begin
    let cap = Array.length t.bl_cells in
    let cells = Array.make (2 * cap) t.vacant.cell
    and seqs = Array.make (2 * cap) (-1) in
    for i = 0 to t.bl_len - 1 do
      let j = (t.bl_head + i) land (cap - 1) in
      cells.(i) <- t.bl_cells.(j);
      seqs.(i) <- t.bl_seqs.(j)
    done;
    t.bl_cells <- cells;
    t.bl_seqs <- seqs;
    t.bl_head <- 0
  end;
  let j = (t.bl_head + t.bl_len) land (Array.length t.bl_cells - 1) in
  t.bl_cells.(j) <- cell;
  t.bl_seqs.(j) <- ack_seq;
  t.bl_len <- t.bl_len + 1

let enqueue t cell ack_seq =
  if not t.aborted then begin
    push_backlog t cell ack_seq;
    t.charged <- t.charged + Wire.cell_size;
    (* The charge can trip the node's OOM responder, which may abort
       this very sender re-entrantly (crediting the bytes back and
       clearing the backlog) — hence the second [aborted] check before
       pumping. *)
    Tor_model.Switchboard.charge t.sb t.circuit Wire.cell_size;
    if not t.aborted then pump t
  end

let submit t cell = enqueue t cell (-1)

let forward t ~ack_seq cell = enqueue t cell ack_seq

let sample_rtt t rtt =
  let rtt_s = sec_of_time rtt in
  let e = t.est in
  if Float.is_nan e.srtt then begin
    e.srtt <- rtt_s;
    e.rttvar <- rtt_s /. 2.
  end
  else begin
    let err = rtt_s -. e.srtt in
    e.srtt <- e.srtt +. (0.125 *. err);
    e.rttvar <- (0.75 *. e.rttvar) +. (0.25 *. Float.abs err)
  end

let on_feedback t ~hop_seq =
  if not t.aborted then
    let p = find t hop_seq in
    (match t.probe with
    | Some probe ->
        probe (Feedback { hop_seq; next_hop_seq = t.next_seq; known = p != t.vacant })
    | None -> ());
    if p == t.vacant then t.spurious <- t.spurious + 1
    else begin
        t.feedbacks <- t.feedbacks + 1;
        remove_inflight t hop_seq;
        let retransmitted = p.retransmitted and sent_at = p.sent_at in
        release t p;
        t.charged <- t.charged - Wire.cell_size;
        Tor_model.Switchboard.credit t.sb t.circuit Wire.cell_size;
        let now = Engine.Sim.now t.sim in
        if not retransmitted then begin
          let rtt = Engine.Time.diff now sent_at in
          if Engine.Time.(rtt > Engine.Time.zero) then begin
            sample_rtt t rtt;
            (* If nothing is waiting locally, the window is not what
               limits this hop; rounds without pressure must not grow.
               Two literal calls: a constant [Some] is preallocated,
               where [Some (t.bl_len > 0)] would allocate. *)
            if t.bl_len > 0 then
              Circuitstart.Controller.on_feedback t.controller ~now ~rtt
                ~window_limited:true ()
            else
              Circuitstart.Controller.on_feedback t.controller ~now ~rtt
                ~window_limited:false ()
          end
        end;
        pump t
    end
