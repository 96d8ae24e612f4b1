(* A hierarchical timer wheel fronting the old binary heap.

   Layout: events within [wheel_slots] ticks of the cursor live in fixed
   wheel slots (one unsorted bag per tick); events beyond that horizon
   spill into the overflow heap, ordered exactly as the old scheduler
   ordered everything.  As the cursor advances, overflow entries whose
   tick enters the window migrate into slots, and the slot under the
   cursor is drained into a small per-tick min-heap that fires entries
   in strict (time, seq) order — so the observable firing order is
   bit-identical to the heap-only implementation.

   The payoff is the hot path: inserting a short-horizon event is O(1)
   array writes (no sift, no comparisons), and [pop_before] returns the
   payload directly with no Option or tuple boxing.  Reusable [timer]
   entries are preallocated once by callers and rearmed in place, so a
   steady-state simulation schedules and fires events without allocating
   at all.

   Timestamps are immediate ints ([Time.t] is a private [int] of
   nanoseconds), so an entry's time is compared, shifted into a tick and
   stored with plain int operations: no boxing and no external calls. *)

type 'a entry = {
  mutable time : Time.t;
  mutable seq : int;
  mutable payload : 'a;
  mutable cancelled : bool;
  mutable fired : bool;
  (* Intrusive location tracking, so reusable timers can be pulled out
     of whichever container holds them in O(1)/O(log n):
     [where] is [loc_free] (not queued), [loc_heap], [loc_buffer], or a
     wheel slot index; [pos] is the index within that container. *)
  mutable where : int;
  mutable pos : int;
}

type handle = H : 'a entry -> handle
type 'a timer = 'a entry

let loc_free = -1
let loc_heap = -2
let loc_buffer = -3

(* Default wheel geometry: 2^16 ns = 65.536us per tick, 256 slots, so
   the window covers ~16.8ms — cell serialization, propagation delays
   and feedback clocks land in slots; RTO-scale timers take the heap.
   Every simulation in the library uses this default.  Both knobs stay
   per-queue ([create ?tick_bits ?wheel_slots]) so a caller can measure
   another geometry.  Geometry is perf-only — firing order is exact
   (time, seq) for any setting, because every drained tick is sorted. *)
let default_tick_bits = 16
let default_wheel_slots = 256

type 'a t = {
  (* Wheel geometry (fixed at creation). *)
  tick_bits : int;
  wheel_slots : int;
  wheel_mask : int;
  (* Overflow heap (beyond the wheel window), ordered by (time, seq).
     Slots >= [heap_len] hold [dummy], never a popped entry: a fired
     event's payload must become collectable the moment the caller
     drops it. *)
  mutable heap : 'a entry array;
  mutable heap_len : int;
  (* The wheel: one unsorted bag of entries per tick in the window
     (cursor, cursor + wheel_slots).  [slot_len] is the bag fill;
     [wheel_count] the total across all bags (cancelled included). *)
  slots : 'a entry array array;
  slot_len : int array;
  mutable wheel_count : int;
  mutable cursor : int;
  (* The drain buffer: all entries due at ticks <= cursor, kept as a
     small (time, seq) min-heap of its own so same-tick inserts while
     the tick drains stay O(log k) — a sorted array here would re-sort
     per insert and go quadratic under same-instant bursts.  Inserts
     at or before the cursor tick push here. *)
  mutable buffer : 'a entry array;
  mutable buf_len : int;
  mutable next_seq : int;
  mutable live : int;
  mutable popped_time : Time.t;
  dummy : 'a entry;
}

(* The filler for unused array slots.  Its payload is never read, never
   compared and never returned — the length fields guard every access —
   so an immediate stands in for the uninhabitable ['a].  This is the
   same trick the stdlib's [Dynarray] uses for its empty slots. *)
let make_dummy () : 'a entry =
  { time = Time.zero; seq = min_int; payload = Obj.magic ();
    cancelled = true; fired = true; where = loc_free; pos = -1 }

let default_capacity = 256

let create ?(capacity = default_capacity) ?(tick_bits = default_tick_bits)
    ?(wheel_slots = default_wheel_slots) () =
  if capacity < 1 then invalid_arg "Event_queue.create: capacity must be positive";
  if tick_bits < 1 || tick_bits > 40 then
    invalid_arg "Event_queue.create: tick_bits must be in [1, 40]";
  if wheel_slots < 2 || wheel_slots land (wheel_slots - 1) <> 0 then
    invalid_arg "Event_queue.create: wheel_slots must be a power of two >= 2";
  let dummy = make_dummy () in
  {
    tick_bits;
    wheel_slots;
    wheel_mask = wheel_slots - 1;
    heap = Array.make capacity dummy;
    heap_len = 0;
    slots = Array.init wheel_slots (fun _ -> [||]);
    slot_len = Array.make wheel_slots 0;
    wheel_count = 0;
    cursor = 0;
    buffer = Array.make 64 dummy;
    buf_len = 0;
    next_seq = 0;
    live = 0;
    popped_time = Time.zero;
    dummy;
  }

(* Strict (time, seq) order, monomorphised: timestamps compare as plain
   int nanoseconds, so the hot path never goes through a closure or a
   polymorphic comparison. *)
let entry_before a b =
  let ta = (a.time :> int) and tb = (b.time :> int) in
  if ta <> tb then ta < tb else a.seq < b.seq

let fresh_seq q =
  let s = q.next_seq in
  if s = max_int then
    failwith "Event_queue.add: insertion sequence exhausted (clear to reset)";
  q.next_seq <- s + 1;
  s

(* ------------------------------------------------------------------ *)
(* Heap machinery, shared by the overflow heap and the drain buffer.
   Both are binary min-heaps over (time, seq) with intrusive [pos]
   maintenance, differing only in which array/length pair they live
   in. *)

let rec sift_up arr i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before arr.(i) arr.(parent) then begin
      let tmp = arr.(i) in
      arr.(i) <- arr.(parent);
      arr.(parent) <- tmp;
      arr.(i).pos <- i;
      tmp.pos <- parent;
      sift_up arr parent
    end
  end

let rec sift_down arr ~len i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < len && entry_before arr.(l) arr.(!smallest) then smallest := l;
  if r < len && entry_before arr.(r) arr.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = arr.(i) in
    arr.(i) <- arr.(!smallest);
    arr.(!smallest) <- tmp;
    arr.(i).pos <- i;
    tmp.pos <- !smallest;
    sift_down arr ~len !smallest
  end

(* ------------------------------------------------------------------ *)
(* Overflow heap *)

let heap_grow q =
  let cap = Array.length q.heap in
  if q.heap_len = cap then begin
    let nheap = Array.make (cap * 2) q.dummy in
    Array.blit q.heap 0 nheap 0 q.heap_len;
    q.heap <- nheap
  end

let heap_push q e =
  heap_grow q;
  q.heap.(q.heap_len) <- e;
  e.where <- loc_heap;
  e.pos <- q.heap_len;
  q.heap_len <- q.heap_len + 1;
  sift_up q.heap (q.heap_len - 1)

(* Remove the entry at heap index [i], restoring heap order. *)
let heap_remove_at q i =
  let e = q.heap.(i) in
  q.heap_len <- q.heap_len - 1;
  if i < q.heap_len then begin
    let last = q.heap.(q.heap_len) in
    q.heap.(i) <- last;
    last.pos <- i;
    q.heap.(q.heap_len) <- q.dummy;
    if entry_before last e then sift_up q.heap i
    else sift_down q.heap ~len:q.heap_len i
  end
  else q.heap.(i) <- q.dummy;
  e.where <- loc_free;
  e

(* The heap half of the lazy-deletion sweep: discard cancelled entries
   sitting at the heap top.  True iff a live top remains. *)
let rec heap_settle q =
  q.heap_len > 0
  &&
  if q.heap.(0).cancelled then begin
    ignore (heap_remove_at q 0);
    heap_settle q
  end
  else true

(* ------------------------------------------------------------------ *)
(* Wheel slots and drain buffer *)

(* Tick of an entry: its time shifted right by the tick width.  An
   arithmetic shift floors, so negative times land on negative ticks,
   which never exceed the cursor (it starts at 0 and only advances) and
   go straight to the drain buffer.  Every tick is below [max_int], the
   "nothing pending" sentinel of [advance], even for [Time.max_value]
   ("never"): all "never" entries share its tick and fire last, in
   (time, seq) order like every drained tick. *)
let tick_of_entry q e = (e.time :> int) asr q.tick_bits

let slot_insert q e tk =
  let s = tk land q.wheel_mask in
  let len = q.slot_len.(s) in
  let arr = q.slots.(s) in
  let arr =
    if Array.length arr = len then begin
      let narr = Array.make (Stdlib.max 8 (2 * len)) q.dummy in
      Array.blit arr 0 narr 0 len;
      q.slots.(s) <- narr;
      narr
    end
    else arr
  in
  arr.(len) <- e;
  e.where <- s;
  e.pos <- len;
  q.slot_len.(s) <- len + 1;
  q.wheel_count <- q.wheel_count + 1

let slot_remove q e =
  let s = e.where in
  let len = q.slot_len.(s) - 1 in
  let arr = q.slots.(s) in
  let last = arr.(len) in
  arr.(e.pos) <- last;
  last.pos <- e.pos;
  arr.(len) <- q.dummy;
  q.slot_len.(s) <- len;
  q.wheel_count <- q.wheel_count - 1;
  e.where <- loc_free

let ensure_buffer q extra =
  let need = q.buf_len + extra in
  let cap = Array.length q.buffer in
  if need > cap then begin
    let ncap = ref cap in
    while !ncap < need do
      ncap := !ncap * 2
    done;
    let nbuf = Array.make !ncap q.dummy in
    Array.blit q.buffer 0 nbuf 0 q.buf_len;
    q.buffer <- nbuf
  end

let buffer_push q e =
  ensure_buffer q 1;
  q.buffer.(q.buf_len) <- e;
  e.where <- loc_buffer;
  e.pos <- q.buf_len;
  q.buf_len <- q.buf_len + 1;
  sift_up q.buffer (q.buf_len - 1)

(* Remove the entry at buffer index [i], restoring heap order. *)
let buffer_remove_at q i =
  let e = q.buffer.(i) in
  q.buf_len <- q.buf_len - 1;
  if i < q.buf_len then begin
    let last = q.buffer.(q.buf_len) in
    q.buffer.(i) <- last;
    last.pos <- i;
    q.buffer.(q.buf_len) <- q.dummy;
    if entry_before last e then sift_up q.buffer i
    else sift_down q.buffer ~len:q.buf_len i
  end
  else q.buffer.(i) <- q.dummy;
  e.where <- loc_free;
  e

(* Drain the bag for slot [s] into the buffer: bulk-append, then one
   bottom-up heapify over the whole buffer — O(k), where per-entry
   pushes would be O(k log k).  Vacated bag cells are dummy-filled so
   drained payloads never stay pinned by the wheel. *)
let load_slot q s =
  let len = q.slot_len.(s) in
  if len > 0 then begin
    ensure_buffer q len;
    let arr = q.slots.(s) in
    for i = 0 to len - 1 do
      let e = arr.(i) in
      arr.(i) <- q.dummy;
      q.buffer.(q.buf_len) <- e;
      e.where <- loc_buffer;
      e.pos <- q.buf_len;
      q.buf_len <- q.buf_len + 1
    done;
    q.slot_len.(s) <- 0;
    q.wheel_count <- q.wheel_count - len;
    for i = (q.buf_len / 2) - 1 downto 0 do
      sift_down q.buffer ~len:q.buf_len i
    done
  end

(* Earliest occupied tick in the wheel window.  Precondition:
   [wheel_count > 0], which guarantees the scan terminates inside the
   window (every wheel entry's tick is in (cursor, cursor+wheel_slots)).
   A top-level loop, not a local closure over [q]: the scan runs once
   per drained tick and must not allocate. *)
let rec next_wheel_tick_from q i =
  let s = (q.cursor + i) land q.wheel_mask in
  if q.slot_len.(s) > 0 then q.cursor + i else next_wheel_tick_from q (i + 1)

let next_wheel_tick q = next_wheel_tick_from q 1

(* Pull overflow entries whose tick has entered the wheel window (or
   passed the cursor) out of the heap.  Each entry migrates at most
   once, because the cursor never moves backwards. *)
let migrate_overflow q =
  let continue = ref true in
  while !continue && heap_settle q do
    let tk = tick_of_entry q q.heap.(0) in
    if tk <= q.cursor then buffer_push q (heap_remove_at q 0)
    else if tk - q.cursor < q.wheel_slots then begin
      let e = heap_remove_at q 0 in
      slot_insert q e tk
    end
    else continue := false
  done

(* Advance the cursor to the next occupied tick (from the wheel or the
   overflow heap) and stage that tick's entries in the drain buffer.
   False iff nothing is pending at all.  Precondition: the buffer is
   empty. *)
let advance q =
  let w = if q.wheel_count > 0 then next_wheel_tick q else max_int in
  let h = if heap_settle q then tick_of_entry q q.heap.(0) else max_int in
  let target = if w < h then w else h in
  if target = max_int then false
  else begin
    q.cursor <- target;
    migrate_overflow q;
    load_slot q (target land q.wheel_mask);
    assert (q.buf_len > 0);
    true
  end

(* The lazy-deletion sweep, shared by every read-or-pop operation:
   discard cancelled entries from the buffer root (and, via [advance],
   from the heap top), advancing the cursor as ticks drain.  After
   [settle q] returns true, [q.buffer.(0)] is the earliest live entry
   in the whole queue. *)
let rec settle q =
  if q.buf_len > 0 then
    if q.buffer.(0).cancelled then begin
      ignore (buffer_remove_at q 0);
      settle q
    end
    else true
  else advance q && settle q

(* ------------------------------------------------------------------ *)
(* Insertion and the public API *)

let insert q e =
  let tk = tick_of_entry q e in
  if tk <= q.cursor then buffer_push q e
  else if tk - q.cursor < q.wheel_slots then slot_insert q e tk
  else heap_push q e

let add q ~time payload =
  let entry =
    { time; seq = fresh_seq q; payload;
      cancelled = false; fired = false; where = loc_free; pos = -1 }
  in
  insert q entry;
  q.live <- q.live + 1;
  H entry

let cancel q (H entry) =
  (* Cancelling an event that already fired must be a no-op, and must
     not touch [live]: the pop already accounted for it. *)
  if not entry.cancelled && not entry.fired then begin
    entry.cancelled <- true;
    q.live <- q.live - 1
  end

let is_cancelled _q (H entry) = entry.cancelled

let fire q e =
  ignore (buffer_remove_at q 0);
  e.fired <- true;
  q.live <- q.live - 1;
  q.popped_time <- e.time

let pop q =
  if settle q then begin
    let e = q.buffer.(0) in
    fire q e;
    Some (e.time, e.payload)
  end
  else None

let pop_before q ~limit ~none =
  if settle q then begin
    let e = q.buffer.(0) in
    if (e.time :> int) <= (limit : Time.t :> int) then begin
      fire q e;
      e.payload
    end
    else none
  end
  else none

let popped_time q = q.popped_time

let peek_time q = if settle q then Some q.buffer.(0).time else None
let size q = q.live
let is_empty q = q.live = 0

let clear q =
  (* Null out every populated cell: a cleared queue must not pin the
     payloads it used to hold.  The entries themselves are marked
     cancelled so a handle kept across the clear cannot corrupt [live].
     [next_seq] and the cursor restart too, so a reused queue is
     indistinguishable from a fresh one. *)
  for i = 0 to q.heap_len - 1 do
    q.heap.(i).cancelled <- true;
    q.heap.(i).where <- loc_free;
    q.heap.(i) <- q.dummy
  done;
  q.heap_len <- 0;
  for s = 0 to q.wheel_slots - 1 do
    let arr = q.slots.(s) in
    for i = 0 to q.slot_len.(s) - 1 do
      arr.(i).cancelled <- true;
      arr.(i).where <- loc_free;
      arr.(i) <- q.dummy
    done;
    q.slot_len.(s) <- 0
  done;
  q.wheel_count <- 0;
  for i = 0 to q.buf_len - 1 do
    q.buffer.(i).cancelled <- true;
    q.buffer.(i).where <- loc_free;
    q.buffer.(i) <- q.dummy
  done;
  q.buf_len <- 0;
  q.cursor <- 0;
  q.live <- 0;
  q.next_seq <- 0

(* ------------------------------------------------------------------ *)
(* Reusable timers *)

let timer _q payload =
  { time = Time.zero; seq = 0; payload; cancelled = true;
    fired = false; where = loc_free; pos = -1 }

let timer_armed e = e.where <> loc_free

(* Pull an armed timer out of whichever container holds it: O(1) from
   a slot bag, O(log n) from either heap. *)
let remove q e =
  if e.where >= 0 then slot_remove q e
  else if e.where = loc_heap then ignore (heap_remove_at q e.pos)
  else if e.where = loc_buffer then ignore (buffer_remove_at q e.pos)

let arm q e ~time =
  if e.where <> loc_free then begin
    remove q e;
    q.live <- q.live - 1
  end;
  e.time <- time;
  e.seq <- fresh_seq q;
  e.cancelled <- false;
  e.fired <- false;
  insert q e;
  q.live <- q.live + 1

let disarm q e =
  if e.where <> loc_free then begin
    remove q e;
    q.live <- q.live - 1
  end;
  e.cancelled <- true

(* ------------------------------------------------------------------ *)

module Private = struct
  let next_seq q = q.next_seq
  let set_next_seq q n = q.next_seq <- n
end
