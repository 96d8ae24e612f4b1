(* A two-level timing wheel over an int slab, with an overflow heap
   behind it (Varghese & Lauck, "Hashed and Hierarchical Timing
   Wheels", SOSP 1987).

   Every queued event owns one slot of the slab: [stride] ints (time,
   seq, container, next-or-heap-index, prev) plus one cell of the
   parallel [entries] array that holds its entry record.  The
   containers hold slot ids, so scheduling, firing and cancelling move
   ints and pay no write barrier; only [entries] holds pointers, and
   only the slot's owner writes it (once when the slot is taken, once
   when it is given back).

   - L0 is a ring of [wheel_slots] ticks of [2^tick_bits] ns covering
     the cursor's block (one L0 revolution, aligned).  Each tick is an
     intrusive doubly linked list threaded through the slab, and an
     occupancy bitmap finds the next occupied tick.
   - L1 holds the next [l1_slots - 1] blocks, one list per block.  When
     the cursor enters a block, that block's list cascades into L0.
   - The overflow heap holds deadlines past L1, ordered by (time, seq);
     its entries migrate into the wheel as the cursor's block advances.
   - The drain heap holds the entries of ticks at or before the cursor,
     ordered by (time, seq), so firing order is exact for any geometry.

   An entry holds a slot only while it is queued: firing, cancelling or
   disarming gives the slot back and overwrites its [entries] cell, so
   a dropped timer or handle, and the payload of a popped or cancelled
   event, stay collectable.  Cancellation is eager, so nothing dead is
   ever stored and no sweep exists. *)

type 'a entry = {
  payload : 'a;
  (* The entry's slab slot while it is queued, else [idle] or
     [cancelled]. *)
  mutable slot : int;
}

type handle = H : 'a entry -> handle [@@unboxed]
type 'a timer = 'a entry

let idle = -1 (* not queued: never armed, fired or disarmed *)
let cancelled = -2 (* not queued: a cancelled or cleared handle *)
let nil = -1

(* The slab's [stride] fields per slot: time, seq, container (an L0
   tick below [wheel_slots], an L1 block from there up, or a heap),
   list successor or heap index or free-list successor, and list
   predecessor. *)
let stride = 5 and f_time = 0 and f_seq = 1 and f_where = 2 and f_next = 3 and f_prev = 4
let in_drain = -1 and in_overflow = -2
let l1_slots = 256

(* Default geometry: 2^12 ns = 4.1 µs ticks and 4096 of them, so L0
   covers ~16.8 ms (serialization and propagation clocks) and L1 ~4.3 s
   (retransmission watchdogs).  Every simulation in the library uses
   this default. *)
let default_tick_bits = 12
let default_wheel_slots = 4096

(* Small, so that a fresh slab (5 ints per slot) is a minor-heap block:
   every world built creates a simulation, and a major-heap slab there
   showed in set-up time.  The slab doubles as it fills. *)
let default_capacity = 32

type 'a t = {
  tick_bits : int;
  wheel_slots : int;
  l0_bits : int;
  l0_mask : int;
  mutable slab : int array;
  mutable entries : 'a entry array;
  mutable free : int;
  (* List heads of the L0 ticks, then of the L1 blocks. *)
  heads : int array;
  (* L0 occupancy, 32 ticks per word. *)
  bitmap : int array;
  mutable l0_count : int;
  mutable l1_count : int;
  mutable drain : int array;
  mutable drain_len : int;
  mutable over : int array;
  mutable over_len : int;
  (* Every tick at or before the cursor has been drained. *)
  mutable cursor : int;
  mutable next_seq : int;
  mutable live : int;
  mutable popped_time : Time.t;
  (* The filler of free [entries] cells.  Its payload is never read, so
     an immediate stands in for the uninhabitable ['a] — the trick the
     stdlib's [Dynarray] uses for its empty cells. *)
  dummy : 'a entry;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* Push slots [hi - 1] down to [lo] onto the free list. *)
let thread_free q lo hi =
  for s = hi - 1 downto lo do
    q.slab.((s * stride) + f_next) <- q.free;
    q.free <- s
  done

let create ?(capacity = default_capacity) ?(tick_bits = default_tick_bits)
    ?(wheel_slots = default_wheel_slots) () =
  if capacity < 1 then invalid_arg "Event_queue.create: capacity must be positive";
  if tick_bits < 1 || tick_bits > 40 then
    invalid_arg "Event_queue.create: tick_bits must be in [1, 40]";
  if wheel_slots < 2 || wheel_slots land (wheel_slots - 1) <> 0 then
    invalid_arg "Event_queue.create: wheel_slots must be a power of two >= 2";
  let dummy = { payload = Obj.magic (); slot = idle } in
  let q =
    { tick_bits; wheel_slots; l0_bits = log2 wheel_slots; l0_mask = wheel_slots - 1;
      slab = Array.make (capacity * stride) 0; entries = Array.make capacity dummy;
      free = nil; heads = Array.make (wheel_slots + l1_slots) nil;
      bitmap = Array.make ((wheel_slots + 31) / 32) 0; l0_count = 0; l1_count = 0;
      drain = Array.make 64 0; drain_len = 0; over = Array.make 64 0; over_len = 0;
      cursor = 0; next_seq = 0; live = 0; popped_time = Time.zero; dummy }
  in
  thread_free q 0 capacity;
  q

let fresh_seq q =
  let s = q.next_seq in
  if s = max_int then
    failwith "Event_queue.add: insertion sequence exhausted (clear to reset)";
  q.next_seq <- s + 1;
  s

(* ------------------------------------------------------------------ *)
(* The slab *)

let grow q =
  let cap = Array.length q.entries in
  let slab = Array.make (2 * cap * stride) 0 in
  Array.blit q.slab 0 slab 0 (cap * stride);
  let entries = Array.make (2 * cap) q.dummy in
  Array.blit q.entries 0 entries 0 cap;
  q.slab <- slab;
  q.entries <- entries;
  thread_free q cap (2 * cap)

let alloc q e =
  if q.free = nil then grow q;
  let s = q.free in
  q.free <- q.slab.((s * stride) + f_next);
  q.entries.(s) <- e;
  e.slot <- s;
  s

let release q s =
  q.entries.(s) <- q.dummy;
  q.slab.((s * stride) + f_next) <- q.free;
  q.free <- s

let tick_of q s = q.slab.((s * stride) + f_time) asr q.tick_bits

(* ------------------------------------------------------------------ *)
(* Binary heaps of slot ids ordered by (time, seq), each slot's heap
   index kept in its [f_next] field: the drain heap and the overflow
   heap.  The [int array] annotations matter: inferred polymorphic, [<]
   would be the generic compare and every store a generic array
   write. *)

let before (slab : int array) a b =
  let ta = slab.(a * stride) and tb = slab.(b * stride) in
  if ta <> tb then ta < tb else slab.((a * stride) + f_seq) < slab.((b * stride) + f_seq)

let put (slab : int array) (h : int array) i s =
  h.(i) <- s;
  slab.((s * stride) + f_next) <- i

(* Fill the hole at [i] with [s], moving it towards the root. *)
let rec sift_up slab h i s =
  if i > 0 && before slab s h.((i - 1) / 2) then begin
    put slab h i h.((i - 1) / 2);
    sift_up slab h ((i - 1) / 2) s
  end
  else put slab h i s

(* Fill the hole at [i] of a heap of [len] with [s], moving it towards
   the leaves. *)
let rec sift_down slab h len i s =
  let l = (2 * i) + 1 in
  if l >= len then put slab h i s
  else begin
    let c = if l + 1 < len && before slab h.(l + 1) h.(l) then l + 1 else l in
    if before slab h.(c) s then begin
      put slab h i h.(c);
      sift_down slab h len c s
    end
    else put slab h i s
  end

(* Take index [i] out of a heap of [len]; the caller shrinks it. *)
let heap_delete slab h len i =
  let last = h.(len - 1) in
  if i < len - 1 then
    if before slab last h.(i) then sift_up slab h i last
    else sift_down slab h (len - 1) i last

let grown h = Array.append h h

let drain_push q s =
  if q.drain_len = Array.length q.drain then q.drain <- grown q.drain;
  q.slab.((s * stride) + f_where) <- in_drain;
  sift_up q.slab q.drain q.drain_len s;
  q.drain_len <- q.drain_len + 1

let over_push q s =
  if q.over_len = Array.length q.over then q.over <- grown q.over;
  q.slab.((s * stride) + f_where) <- in_overflow;
  sift_up q.slab q.over q.over_len s;
  q.over_len <- q.over_len + 1

(* ------------------------------------------------------------------ *)
(* Wheel lists *)

(* Each list is circular: its head's [f_prev] is its tail.  Appending
   at the tail keeps a tick's entries in insertion order, so a drained
   burst of same-instant events is already sorted and the drain heap's
   branches stay predictable. *)
let link q s c =
  let b = s * stride and h = q.heads.(c) in
  q.slab.(b + f_where) <- c;
  if h = nil then begin
    q.heads.(c) <- s;
    q.slab.(b + f_next) <- s;
    q.slab.(b + f_prev) <- s
  end
  else begin
    let t = q.slab.((h * stride) + f_prev) in
    q.slab.((t * stride) + f_next) <- s;
    q.slab.(b + f_prev) <- t;
    q.slab.(b + f_next) <- h;
    q.slab.((h * stride) + f_prev) <- s
  end

let unlink q s c =
  let b = s * stride in
  let nx = q.slab.(b + f_next) in
  if nx = s then q.heads.(c) <- nil
  else begin
    let pv = q.slab.(b + f_prev) in
    q.slab.((pv * stride) + f_next) <- nx;
    q.slab.((nx * stride) + f_prev) <- pv;
    if q.heads.(c) = s then q.heads.(c) <- nx
  end

let set_bit q c = q.bitmap.(c lsr 5) <- q.bitmap.(c lsr 5) lor (1 lsl (c land 31))
let clear_bit q c = q.bitmap.(c lsr 5) <- q.bitmap.(c lsr 5) land lnot (1 lsl (c land 31))

(* Count trailing zeros of a nonzero 32-bit word: isolate the lowest
   set bit and index a de Bruijn sequence with it. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 x = debruijn.((((x land -x) * 0x077C_B531) land 0xFFFF_FFFF) lsr 27)

(* Queue slot [s] where its tick belongs: the drain heap at or before
   the cursor, L0 in the cursor's block, L1 in the next [l1_slots - 1]
   blocks, the overflow heap beyond.  Ticks of negative times are
   negative and never exceed the cursor, which starts at 0; every tick,
   even that of [Time.max_value], is a plain int. *)
let place q s =
  let tk = tick_of q s in
  if tk <= q.cursor then drain_push q s
  else begin
    let blk = tk asr q.l0_bits and cur = q.cursor asr q.l0_bits in
    if blk = cur then begin
      let c = tk land q.l0_mask in
      if q.heads.(c) = nil then set_bit q c;
      link q s c;
      q.l0_count <- q.l0_count + 1
    end
    else if blk - cur < l1_slots then begin
      link q s (q.wheel_slots + (blk land (l1_slots - 1)));
      q.l1_count <- q.l1_count + 1
    end
    else over_push q s
  end

(* Take queued slot [s] out of its container. *)
let remove q s =
  let b = s * stride in
  let w = q.slab.(b + f_where) in
  if w >= q.wheel_slots then begin
    unlink q s w;
    q.l1_count <- q.l1_count - 1
  end
  else if w >= 0 then begin
    unlink q s w;
    if q.heads.(w) = nil then clear_bit q w;
    q.l0_count <- q.l0_count - 1
  end
  else if w = in_drain then begin
    heap_delete q.slab q.drain q.drain_len q.slab.(b + f_next);
    q.drain_len <- q.drain_len - 1
  end
  else begin
    heap_delete q.slab q.over q.over_len q.slab.(b + f_next);
    q.over_len <- q.over_len - 1
  end

(* ------------------------------------------------------------------ *)
(* Advancing the cursor.  Top-level loops, not local closures over [q]:
   they run once per drained tick and must not allocate. *)

(* The first occupied L0 slot at or after the one whose bitmap word is
   [w], given that word's remaining [bits].  Precondition: one exists. *)
let rec next_slot q w bits =
  if bits <> 0 then (w lsl 5) + ctz32 bits else next_slot q (w + 1) q.bitmap.(w + 1)

(* The earliest occupied L0 tick.  Precondition: [l0_count > 0], and
   every L0 tick is after the cursor in the cursor's block. *)
let next_l0_tick q =
  let i = (q.cursor land q.l0_mask) + 1 in
  let w = i lsr 5 in
  q.cursor - (q.cursor land q.l0_mask) + next_slot q w (q.bitmap.(w) land (-1 lsl (i land 31)))

(* The earliest occupied L1 block.  Precondition: [l1_count > 0]. *)
let rec next_block q blk =
  if q.heads.(q.wheel_slots + (blk land (l1_slots - 1))) <> nil then blk
  else next_block q (blk + 1)

(* Move the list of L0 tick [c] into the (empty) drain heap: append
   from head [h] round to the tail, then heapify bottom-up. *)
let rec append_list q h s =
  let nx = q.slab.((s * stride) + f_next) in
  if q.drain_len = Array.length q.drain then q.drain <- grown q.drain;
  q.slab.((s * stride) + f_where) <- in_drain;
  put q.slab q.drain q.drain_len s;
  q.drain_len <- q.drain_len + 1;
  q.l0_count <- q.l0_count - 1;
  if nx <> h then append_list q h nx

let load_tick q c =
  let h = q.heads.(c) in
  q.heads.(c) <- nil;
  clear_bit q c;
  append_list q h h;
  for i = (q.drain_len / 2) - 1 downto 0 do
    sift_down q.slab q.drain q.drain_len i q.drain.(i)
  done

(* Move the list (head [h]) of the L1 block the cursor just entered
   into L0, or into the drain heap for the block's first tick. *)
let rec cascade q h s =
  let nx = q.slab.((s * stride) + f_next) in
  q.l1_count <- q.l1_count - 1;
  place q s;
  if nx <> h then cascade q h nx

(* After the cursor's block advanced: pull overflow entries whose block
   now falls within L1's reach back into the wheel.  Each entry leaves
   the overflow heap at most once. *)
let rec migrate q =
  if q.over_len > 0 then begin
    let s = q.over.(0) in
    if (tick_of q s asr q.l0_bits) - (q.cursor asr q.l0_bits) < l1_slots then begin
      heap_delete q.slab q.over q.over_len 0;
      q.over_len <- q.over_len - 1;
      place q s;
      migrate q
    end
  end

(* Advance the cursor to the next occupied tick and stage its entries
   in the drain heap.  False iff nothing is queued.  Precondition: the
   drain heap is empty. *)
let rec advance q =
  if q.l0_count > 0 then begin
    let tk = next_l0_tick q in
    q.cursor <- tk;
    load_tick q (tk land q.l0_mask);
    true
  end
  else if q.l1_count > 0 then begin
    let blk = next_block q ((q.cursor asr q.l0_bits) + 1) in
    let c = q.wheel_slots + (blk land (l1_slots - 1)) in
    let s = q.heads.(c) in
    q.heads.(c) <- nil;
    q.cursor <- blk lsl q.l0_bits;
    cascade q s s;
    migrate q;
    q.drain_len > 0 || advance q
  end
  else if q.over_len > 0 then begin
    q.cursor <- tick_of q q.over.(0);
    migrate q;
    true
  end
  else false

let settle q = q.drain_len > 0 || advance q

(* ------------------------------------------------------------------ *)
(* The public API *)

(* Queue [e] at [time] with a fresh sequence number, reusing its slot
   if it is already queued. *)
let schedule q e time =
  let seq = fresh_seq q in
  let s =
    if e.slot >= 0 then begin
      remove q e.slot;
      e.slot
    end
    else begin
      q.live <- q.live + 1;
      alloc q e
    end
  in
  q.slab.((s * stride) + f_time) <- (time : Time.t :> int);
  q.slab.((s * stride) + f_seq) <- seq;
  place q s

(* Take [e] out of the queue, if it is queued, and give its slot back;
   it is then in [state]. *)
let dequeue q e state =
  if e.slot >= 0 then begin
    remove q e.slot;
    release q e.slot;
    q.live <- q.live - 1;
    e.slot <- state
  end

let add q ~time payload =
  let e = { payload; slot = idle } in
  schedule q e time;
  H e

let cancel q (H e) = dequeue q e cancelled

let is_cancelled _q (H e) = e.slot = cancelled

(* Remove and return the drain heap's root, the earliest event. *)
let fire q =
  let s = q.drain.(0) in
  let e = q.entries.(s) in
  q.popped_time <- Time.ns q.slab.((s * stride) + f_time);
  q.drain_len <- q.drain_len - 1;
  if q.drain_len > 0 then sift_down q.slab q.drain q.drain_len 0 q.drain.(q.drain_len);
  release q s;
  e.slot <- idle;
  q.live <- q.live - 1;
  e

let pop q =
  if settle q then begin
    let e = fire q in
    Some (q.popped_time, e.payload)
  end
  else None

let pop_before q ~limit ~none =
  if settle q && q.slab.(q.drain.(0) * stride) <= (limit : Time.t :> int) then
    (fire q).payload
  else none

let popped_time q = q.popped_time

let peek_time q =
  if settle q then Some (Time.ns q.slab.(q.drain.(0) * stride)) else None

let size q = q.live

let clear q =
  (* Every queued entry leaves the queue (a pending handle reads as
     cancelled, an armed timer as unarmed) and no payload stays pinned.
     [next_seq] and the cursor restart too, so a reused queue is
     indistinguishable from a fresh one. *)
  Array.iter (fun e -> if e != q.dummy then e.slot <- cancelled) q.entries;
  Array.fill q.entries 0 (Array.length q.entries) q.dummy;
  q.free <- nil;
  thread_free q 0 (Array.length q.entries);
  Array.fill q.heads 0 (Array.length q.heads) nil;
  Array.fill q.bitmap 0 (Array.length q.bitmap) 0;
  q.l0_count <- 0;
  q.l1_count <- 0;
  q.drain_len <- 0;
  q.over_len <- 0;
  q.cursor <- 0;
  q.live <- 0;
  q.next_seq <- 0

(* ------------------------------------------------------------------ *)
(* Reusable timers *)

let timer _q payload = { payload; slot = idle }
let timer_armed e = e.slot >= 0
let arm q e ~time = schedule q e time

let disarm q e = dequeue q e idle

(* ------------------------------------------------------------------ *)

module Private = struct
  let next_seq q = q.next_seq
  let set_next_seq q n = q.next_seq <- n
end
