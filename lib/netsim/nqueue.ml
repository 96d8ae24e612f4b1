type capacity = { max_packets : int option; max_bytes : int option }

let unbounded = { max_packets = None; max_bytes = None }

let packets n =
  if n <= 0 then invalid_arg "Nqueue.packets: capacity must be positive";
  { max_packets = Some n; max_bytes = None }

(* A ring buffer: slot [(head + i) land (Array.length pkts - 1)] holds
   the i-th queued packet and, in [txs], the transmit callback riding
   with it.  The arrays double when full and never shrink, so a queue
   allocates only while it reaches a new occupancy high. *)
type t = {
  cap_packets : int;  (* max_int when unlimited *)
  cap_bytes : int;
  mutable pkts : Packet.t array;
  mutable txs : (int -> unit) option array;
  mutable head : int;
  mutable len : int;
  mutable cur_bytes : int;
  mutable drops : int;
  mutable dropped_bytes : int;
  mutable enqueued : int;
  mutable hwm : int;
}

let create capacity =
  { cap_packets = Option.value capacity.max_packets ~default:max_int;
    cap_bytes = Option.value capacity.max_bytes ~default:max_int;
    pkts = Array.make 8 Packet.placeholder; txs = Array.make 8 None; head = 0;
    len = 0; cur_bytes = 0; drops = 0; dropped_bytes = 0; enqueued = 0; hwm = 0 }

let grow t =
  let cap = Array.length t.pkts in
  let pkts = Array.make (2 * cap) Packet.placeholder and txs = Array.make (2 * cap) None in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) land (cap - 1) in
    pkts.(i) <- t.pkts.(j);
    txs.(i) <- t.txs.(j)
  done;
  t.pkts <- pkts;
  t.txs <- txs;
  t.head <- 0

let push t (p : Packet.t) on_transmit =
  if t.len < t.cap_packets && t.cur_bytes + p.size <= t.cap_bytes then begin
    if t.len = Array.length t.pkts then grow t;
    let j = (t.head + t.len) land (Array.length t.pkts - 1) in
    t.pkts.(j) <- p;
    t.txs.(j) <- on_transmit;
    t.len <- t.len + 1;
    t.cur_bytes <- t.cur_bytes + p.size;
    t.enqueued <- t.enqueued + 1;
    if t.cur_bytes > t.hwm then t.hwm <- t.cur_bytes;
    true
  end
  else begin
    t.drops <- t.drops + 1;
    t.dropped_bytes <- t.dropped_bytes + p.size;
    false
  end

let head_on_transmit t = if t.len = 0 then None else t.txs.(t.head)

let take t =
  if t.len = 0 then invalid_arg "Nqueue.take: empty queue";
  let p = t.pkts.(t.head) in
  t.pkts.(t.head) <- Packet.placeholder;
  t.txs.(t.head) <- None;
  t.head <- (t.head + 1) land (Array.length t.pkts - 1);
  t.len <- t.len - 1;
  t.cur_bytes <- t.cur_bytes - p.size;
  p

let length t = t.len
let byte_length t = t.cur_bytes
let is_empty t = t.len = 0
let drops t = t.drops
let dropped_bytes t = t.dropped_bytes
let enqueued_total t = t.enqueued
let high_watermark_bytes t = t.hwm
