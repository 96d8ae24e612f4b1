(* Unit and property tests for the discrete-event engine. *)

let time = Alcotest.testable Engine.Time.pp Engine.Time.equal

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_constructors () =
  Alcotest.check time "us" (Engine.Time.ns 1_000) (Engine.Time.us 1);
  Alcotest.check time "ms" (Engine.Time.us 1_000) (Engine.Time.ms 1);
  Alcotest.check time "s" (Engine.Time.ms 1_000) (Engine.Time.s 1);
  Alcotest.check time "of_sec_f" (Engine.Time.ms 1_500) (Engine.Time.of_sec_f 1.5);
  Alcotest.check time "of_ms_f" (Engine.Time.us 250) (Engine.Time.of_ms_f 0.25)

let test_time_arithmetic () =
  let a = Engine.Time.ms 5 and b = Engine.Time.ms 3 in
  Alcotest.check time "add" (Engine.Time.ms 8) (Engine.Time.add a b);
  Alcotest.check time "diff" (Engine.Time.ms 2) (Engine.Time.diff a b);
  Alcotest.check time "mul_int" (Engine.Time.ms 15) (Engine.Time.mul_int a 3);
  Alcotest.(check (float 1e-9)) "ratio" (5. /. 3.) (Engine.Time.ratio a b);
  Alcotest.(check bool) "negative" true
    (Engine.Time.is_negative (Engine.Time.diff b a))

let test_time_saturation () =
  let huge = Engine.Time.max_value in
  Alcotest.check time "add saturates" huge (Engine.Time.add huge (Engine.Time.s 1))

(* The representable range is [-2^62, 2^62 - 1] ns: [max_value] is
   [max_int], and every conversion from a wider type clamps into it. *)
let test_time_range_edges () =
  let ns64 = Engine.Time.of_ns64 and huge = Engine.Time.max_value in
  let lowest = Engine.Time.of_ns64 Int64.min_int in
  Alcotest.(check int) "max_value is max_int" max_int (huge :> int);
  Alcotest.(check int) "lowest is min_int" min_int (lowest :> int);
  Alcotest.check time "add of two positives saturates" huge
    (Engine.Time.add (Engine.Time.ns (max_int / 2 + 1)) (Engine.Time.ns (max_int / 2 + 1)));
  Alcotest.check time "add up to max_value is exact" huge
    (Engine.Time.add (Engine.Time.ns (max_int - 5)) (Engine.Time.ns 5));
  Alcotest.check time "of_ns64 at 2^62 saturates" huge (ns64 0x4000_0000_0000_0000L);
  Alcotest.check time "of_ns64 at int64 max saturates" huge (ns64 Int64.max_int);
  Alcotest.check time "of_ns64 below -2^62 saturates" lowest
    (ns64 (-0x4000_0000_0000_0001L));
  Alcotest.check time "of_sec_f beyond range saturates" huge (Engine.Time.of_sec_f 1e12);
  Alcotest.check time "of_sec_f below range saturates" lowest
    (Engine.Time.of_sec_f (-1e12));
  Alcotest.check time "of_ms_f beyond range saturates" huge (Engine.Time.of_ms_f 1e15)

let test_time_conversions () =
  Alcotest.(check (float 1e-12)) "to_sec_f" 0.002 (Engine.Time.to_sec_f (Engine.Time.ms 2));
  Alcotest.(check (float 1e-9)) "to_ms_f" 2. (Engine.Time.to_ms_f (Engine.Time.ms 2))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Engine.Time.to_string (Engine.Time.ns 500));
  Alcotest.(check string) "us" "1.5us" (Engine.Time.to_string (Engine.Time.ns 1_500));
  Alcotest.(check string) "ms" "2.50ms" (Engine.Time.to_string (Engine.Time.us 2_500));
  Alcotest.(check string) "s" "3.000s" (Engine.Time.to_string (Engine.Time.s 3))

let test_time_invalid () =
  Alcotest.check_raises "non-finite" (Invalid_argument "Time: non-finite duration")
    (fun () -> ignore (Engine.Time.of_sec_f Float.nan))

let prop_time_order =
  QCheck2.Test.make ~name:"time order is total and consistent with ns"
    QCheck2.Gen.(pair (int_range (-1_000_000) 1_000_000) (int_range (-1_000_000) 1_000_000))
    (fun (a, b) ->
      let ta = Engine.Time.ns a and tb = Engine.Time.ns b in
      Engine.Time.(ta < tb) = (a < b)
      && Engine.Time.(ta <= tb) = (a <= b)
      && Engine.Time.equal (Engine.Time.min ta tb) (Engine.Time.ns (Stdlib.min a b)))

let prop_time_add_sub =
  QCheck2.Test.make ~name:"add then sub is identity"
    QCheck2.Gen.(pair (int_range (-1_000_000) 1_000_000) (int_range (-1_000_000) 1_000_000))
    (fun (a, b) ->
      let ta = Engine.Time.ns a and tb = Engine.Time.ns b in
      Engine.Time.equal (Engine.Time.diff (Engine.Time.add ta tb) tb) ta)

let gen_ns64_in_range =
  QCheck2.Gen.(
    map Int64.of_int
      (oneof [ int_range (-1_000_000) 1_000_000; int_range min_int max_int ]))

let prop_time_ns64_roundtrip =
  QCheck2.Test.make ~name:"to_ns (of_ns64 x) = x in range" gen_ns64_in_range
    (fun x -> Int64.equal (Engine.Time.to_ns (Engine.Time.of_ns64 x)) x)

let prop_time_compare_int64 =
  QCheck2.Test.make ~name:"Time.compare agrees with Int64.compare"
    QCheck2.Gen.(pair gen_ns64_in_range gen_ns64_in_range)
    (fun (a, b) ->
      let sign c = Stdlib.compare c 0 in
      sign (Engine.Time.compare (Engine.Time.of_ns64 a) (Engine.Time.of_ns64 b))
      = sign (Int64.compare a b))

(* ------------------------------------------------------------------ *)
(* Units *)

let test_rate_constructors () =
  Alcotest.(check int) "mbit" 3_000_000
    (Engine.Units.Rate.to_bps (Engine.Units.Rate.mbit 3));
  Alcotest.(check int) "mbit_f" 1_500_000
    (Engine.Units.Rate.to_bps (Engine.Units.Rate.mbit_f 1.5));
  Alcotest.check_raises "zero rate" (Invalid_argument "Rate.bps: rate must be positive")
    (fun () -> ignore (Engine.Units.Rate.bps 0))

let test_transmission_time () =
  Alcotest.check time "exact"
    (Engine.Time.s 1)
    (Engine.Units.Rate.transmission_time (Engine.Units.Rate.bps 8_000) 1000);
  Alcotest.check time "ceil"
    (Engine.Time.of_ns64 2_666_666_667L)
    (Engine.Units.Rate.transmission_time (Engine.Units.Rate.bps 3) 1);
  Alcotest.check time "zero bytes" Engine.Time.zero
    (Engine.Units.Rate.transmission_time (Engine.Units.Rate.mbit 1) 0)

let test_sizes () =
  Alcotest.(check int) "kib" 2048 (Engine.Units.kib 2);
  Alcotest.(check int) "mib" (1024 * 1024) (Engine.Units.mib 1)

let prop_transmission_additive =
  QCheck2.Test.make ~name:"transmission time roughly additive in size"
    QCheck2.Gen.(pair (int_range 1 100_000) (int_range 1 100_000))
    (fun (a, b) ->
      let r = Engine.Units.Rate.mbit 10 in
      let t_ab = Engine.Units.Rate.transmission_time r (a + b) in
      let t_sum =
        Engine.Time.add
          (Engine.Units.Rate.transmission_time r a)
          (Engine.Units.Rate.transmission_time r b)
      in
      Int64.abs (Int64.sub (Engine.Time.to_ns t_ab) (Engine.Time.to_ns t_sum)) <= 1L)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Engine.Rng.create 1 and b = Engine.Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Engine.Rng.bits64 a) (Engine.Rng.bits64 b)
  done

let test_rng_split_independence () =
  let root = Engine.Rng.create 2 in
  let child = Engine.Rng.split root in
  let x = Engine.Rng.bits64 child in
  let root2 = Engine.Rng.create 2 in
  let child2 = Engine.Rng.split root2 in
  Alcotest.(check int64) "split reproducible" x (Engine.Rng.bits64 child2)

let test_rng_copy () =
  let a = Engine.Rng.create 3 in
  ignore (Engine.Rng.bits64 a);
  let b = Engine.Rng.copy a in
  Alcotest.(check int64) "copies agree" (Engine.Rng.bits64 a) (Engine.Rng.bits64 b)

let test_rng_bounds () =
  let rng = Engine.Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Engine.Rng.int rng 7 in
    Alcotest.(check bool) "int in [0,7)" true (x >= 0 && x < 7);
    let f = Engine.Rng.float rng 2.5 in
    Alcotest.(check bool) "float in [0,2.5)" true (f >= 0. && f < 2.5)
  done

let test_rng_moments () =
  let rng = Engine.Rng.create 5 in
  let n = 20_000 in
  let acc = Engine.Stats.Online.create () in
  for _ = 1 to n do
    Engine.Stats.Online.add acc (Engine.Rng.exponential rng ~mean:2.)
  done;
  Alcotest.(check bool) "exponential mean ~2" true
    (Float.abs (Engine.Stats.Online.mean acc -. 2.) < 0.1)

let test_rng_lognormal_median () =
  let rng = Engine.Rng.create 6 in
  let n = 20_001 in
  let xs =
    Array.init n (fun _ -> Engine.Rng.lognormal rng ~mu:(Float.log 10.) ~sigma:0.75)
  in
  let med = Engine.Stats.percentile xs 50. in
  Alcotest.(check bool)
    (Printf.sprintf "lognormal median ~10 (got %.2f)" med)
    true
    (med > 9. && med < 11.);
  (* One sigma above the median of the underlying normal: the 84.13th
     percentile is 10 e^0.75 ~ 21.2. *)
  let p84 = Engine.Stats.percentile xs 84.13 in
  Alcotest.(check bool)
    (Printf.sprintf "lognormal p84 ~21.2 (got %.2f)" p84)
    true
    (p84 > 19.5 && p84 < 23.)

let test_rng_pick_weighted () =
  let rng = Engine.Rng.create 8 in
  let counts = [| 0; 0 |] in
  for _ = 1 to 10_000 do
    let i = Engine.Rng.pick_weighted rng [| (0, 1.); (1, 9.) |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "weighted ratio ~9x" true (counts.(1) > 7 * counts.(0));
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Rng.pick_weighted: zero total weight") (fun () ->
      ignore (Engine.Rng.pick_weighted rng [| ((), 0.) |]))

let prop_rng_int_unbiased =
  QCheck2.Test.make ~name:"Rng.int covers the whole range"
    QCheck2.Gen.(int_range 2 20)
    (fun bound ->
      let rng = Engine.Rng.create bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Engine.Rng.int rng bound) <- true
      done;
      Array.for_all Fun.id seen)

(* The boxed SplitMix64 that [Engine.Rng] used to be, frozen as the
   reference model: the generator now keeps its state unboxed, and every
   stream it produces must stay bit-identical to this one. *)
module Ref_rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { state = mix64 (Int64.of_int seed) }

  let bits64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix64 t.state

  let split t = { state = bits64 t }
  let copy t = { state = t.state }

  let int t bound =
    let bound64 = Int64.of_int bound in
    let rec draw () =
      let r = Int64.shift_right_logical (bits64 t) 1 in
      let v = Int64.rem r bound64 in
      if Int64.compare (Int64.sub r v) (Int64.sub (Int64.sub Int64.max_int bound64) 1L) > 0
      then draw ()
      else Int64.to_int v
    in
    draw ()

  let unit_float t =
    let r = Int64.shift_right_logical (bits64 t) 11 in
    Int64.to_float r *. (1. /. 9007199254740992.)

  let float t bound = unit_float t *. bound
end

type rng_op = Bits | Int of int | Float of float | Split | Copy

let gen_rng_op =
  let bound =
    QCheck2.Gen.(
      oneof
        [ int_range 1 1_000; int_range 1 max_int;
          map (fun d -> max_int - d) (int_range 0 1_000);
          map (fun k -> 1 lsl k) (int_range 0 61);
          map (fun k -> (1 lsl k) + 1) (int_range 0 61) ])
  in
  QCheck2.Gen.(
    oneof
      [ pure Bits; map (fun b -> Int b) bound;
        map (fun x -> Float x) (float_range 1e-9 1e9);
        pure Split; pure Copy ])

(* One random program of draws, run on the generator and the reference
   in lockstep.  [Split] continues on the child streams; [Copy] checks
   that the copies and the originals all agree. *)
let prop_rng_matches_reference =
  QCheck2.Test.make ~name:"Rng streams are bit-identical to boxed SplitMix64"
    ~count:300
    QCheck2.Gen.(pair int (list_size (int_range 1 200) gen_rng_op))
    (fun (seed, ops) ->
      let module R = Engine.Rng in
      let t = ref (R.create seed) and m = ref (Ref_rng.create seed) in
      List.for_all
        (fun op ->
          match op with
          | Bits -> Int64.equal (R.bits64 !t) (Ref_rng.bits64 !m)
          | Int b -> R.int !t b = Ref_rng.int !m b
          | Float x ->
              Int64.equal
                (Int64.bits_of_float (R.float !t x))
                (Int64.bits_of_float (Ref_rng.float !m x))
          | Split ->
              t := R.split !t;
              m := Ref_rng.split !m;
              Int64.equal (R.bits64 !t) (Ref_rng.bits64 !m)
          | Copy ->
              let tc = R.copy !t and mc = Ref_rng.copy !m in
              let a = R.bits64 tc and b = Ref_rng.bits64 mc in
              Int64.equal a b
              && Int64.equal (R.bits64 !t) a
              && Int64.equal (Ref_rng.bits64 !m) b)
        ops)

(* ------------------------------------------------------------------ *)
(* Event queue *)

let test_queue_ordering () =
  let q = Engine.Event_queue.create () in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 3) "c");
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 1) "a");
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 2) "b");
  let order = List.init 3 (fun _ -> snd (Option.get (Engine.Event_queue.pop q))) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order

let test_queue_stability () =
  let q = Engine.Event_queue.create () in
  for i = 0 to 9 do
    ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 1) i)
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Engine.Event_queue.pop q))) in
  Alcotest.(check (list int)) "fifo at equal times" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] order

let test_queue_cancel () =
  let q = Engine.Event_queue.create () in
  let h1 = Engine.Event_queue.add q ~time:(Engine.Time.ms 1) "a" in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 2) "b");
  Engine.Event_queue.cancel q h1;
  Alcotest.(check int) "size after cancel" 1 (Engine.Event_queue.size q);
  Alcotest.(check bool) "is_cancelled" true (Engine.Event_queue.is_cancelled q h1);
  Alcotest.(check (option string))
    "pop skips cancelled" (Some "b")
    (Option.map snd (Engine.Event_queue.pop q));
  Engine.Event_queue.cancel q h1;
  Alcotest.(check int) "size stable" 0 (Engine.Event_queue.size q)

let test_queue_cancel_after_fire () =
  let q = Engine.Event_queue.create () in
  let h = Engine.Event_queue.add q ~time:Engine.Time.zero "x" in
  ignore (Engine.Event_queue.pop q);
  Engine.Event_queue.cancel q h;
  Alcotest.(check int) "size not negative" 0 (Engine.Event_queue.size q);
  Alcotest.(check bool) "fired is not cancelled" false
    (Engine.Event_queue.is_cancelled q h)

let test_queue_peek_clear () =
  let q = Engine.Event_queue.create () in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 5) ());
  Alcotest.(check (option time)) "peek" (Some (Engine.Time.ms 5))
    (Engine.Event_queue.peek_time q);
  Engine.Event_queue.clear q;
  Alcotest.(check bool) "empty" true (Engine.Event_queue.size q = 0)

let test_queue_clear_resets () =
  let q = Engine.Event_queue.create () in
  let h = Engine.Event_queue.add q ~time:(Engine.Time.ms 1) "old" in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 2) "older");
  Engine.Event_queue.clear q;
  Alcotest.(check int) "size" 0 (Engine.Event_queue.size q);
  Alcotest.(check bool) "empty" true (Engine.Event_queue.size q = 0);
  (* A handle minted before the clear must be inert: cancelling it
     cannot drive the live count negative or disturb new entries. *)
  Engine.Event_queue.cancel q h;
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 5) "a");
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 5) "b");
  Engine.Event_queue.cancel q h;
  Alcotest.(check int) "stale cancel is a no-op" 2 (Engine.Event_queue.size q);
  (* next_seq restarts, so equal-time FIFO order holds after a clear. *)
  Alcotest.(check (list string)) "fifo after clear" [ "a"; "b" ]
    (List.init 2 (fun _ -> snd (Option.get (Engine.Event_queue.pop q))))

let test_queue_slots_released () =
  (* Popped and cleared entries must not pin their payloads: a slot
     given back overwrites its entry cell with a dummy, so the only
     remaining reference is the caller's. *)
  let q = Engine.Event_queue.create () in
  let w = Weak.create 4 in
  for i = 0 to 3 do
    let payload = ref i in
    Weak.set w i (Some payload);
    ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms i) payload)
  done;
  ignore (Engine.Event_queue.pop q);
  ignore (Engine.Event_queue.pop q);
  Engine.Event_queue.clear q;
  Gc.full_major ();
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d collected" i)
      true
      (Weak.get w i = None)
  done

let test_queue_pop_before () =
  let q = Engine.Event_queue.create () in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 1) "a");
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 5) "b");
  let none = "NONE" in
  Alcotest.(check string) "due event pops" "a"
    (Engine.Event_queue.pop_before q ~limit:(Engine.Time.ms 2) ~none);
  Alcotest.check time "popped_time stamped" (Engine.Time.ms 1)
    (Engine.Event_queue.popped_time q);
  (* Nothing due by the limit: the very sentinel comes back and the
     queue is untouched. *)
  Alcotest.(check bool) "sentinel returned physically" true
    (Engine.Event_queue.pop_before q ~limit:(Engine.Time.ms 2) ~none == none);
  Alcotest.(check int) "queue untouched" 1 (Engine.Event_queue.size q);
  Alcotest.(check string) "limit is inclusive" "b"
    (Engine.Event_queue.pop_before q ~limit:(Engine.Time.ms 5) ~none);
  Alcotest.check time "popped_time follows" (Engine.Time.ms 5)
    (Engine.Event_queue.popped_time q);
  Alcotest.(check bool) "empty queue returns sentinel" true
    (Engine.Event_queue.pop_before q ~limit:Engine.Time.max_value ~none == none)

let test_queue_pop_before_skips_cancelled () =
  let q = Engine.Event_queue.create () in
  let h = Engine.Event_queue.add q ~time:(Engine.Time.ms 1) "dead" in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 2) "live");
  Engine.Event_queue.cancel q h;
  let none = "NONE" in
  Alcotest.(check string) "the cancelled head is gone" "live"
    (Engine.Event_queue.pop_before q ~limit:(Engine.Time.ms 3) ~none);
  Alcotest.(check bool) "then empty" true (Engine.Event_queue.size q = 0)

let test_queue_seq_overflow_guarded () =
  let q = Engine.Event_queue.create () in
  ignore (Engine.Event_queue.add q ~time:Engine.Time.zero ());
  Engine.Event_queue.Private.set_next_seq q max_int;
  Alcotest.check_raises "add at the sequence ceiling"
    (Failure "Event_queue.add: insertion sequence exhausted (clear to reset)")
    (fun () -> ignore (Engine.Event_queue.add q ~time:Engine.Time.zero ()));
  (* [clear] resets the counter, so the queue is usable again. *)
  Engine.Event_queue.clear q;
  Alcotest.(check int) "clear resets next_seq" 0
    (Engine.Event_queue.Private.next_seq q);
  ignore (Engine.Event_queue.add q ~time:Engine.Time.zero ());
  Alcotest.(check int) "adds work after reset" 1 (Engine.Event_queue.size q)

let test_queue_live_bookkeeping () =
  (* [size] must track the live population exactly through interleaved
     cancels (including double cancels and cancels of fired events) and
     pops that sweep over cancelled entries. *)
  let q = Engine.Event_queue.create () in
  let hs = Array.init 20 (fun i -> Engine.Event_queue.add q ~time:(Engine.Time.ms i) i) in
  Array.iteri (fun i h -> if i mod 2 = 0 then Engine.Event_queue.cancel q h) hs;
  Alcotest.(check int) "size after cancelling evens" 10 (Engine.Event_queue.size q);
  Engine.Event_queue.cancel q hs.(0);
  Alcotest.(check int) "double cancel is a no-op" 10 (Engine.Event_queue.size q);
  let popped =
    List.init 5 (fun _ -> snd (Option.get (Engine.Event_queue.pop q)))
  in
  Alcotest.(check (list int)) "odd payloads surface in order" [ 1; 3; 5; 7; 9 ] popped;
  Alcotest.(check int) "size tracks pops" 5 (Engine.Event_queue.size q);
  Array.iter (fun h -> Engine.Event_queue.cancel q h) hs;
  Alcotest.(check int) "cancelling everything (incl. fired) empties" 0
    (Engine.Event_queue.size q);
  Alcotest.(check bool) "pop on all-cancelled queue" true
    (Engine.Event_queue.pop q = None);
  Alcotest.(check bool) "is_empty agrees" true (Engine.Event_queue.size q = 0)

let test_queue_wheel_horizons () =
  (* Deadlines in L0 (~16.8 ms), in L1 (~4.3 s) and in the overflow
     heap beyond: L1 blocks cascade into L0, and overflow entries
     migrate into the wheel as the cursor approaches.  Order must come
     out globally sorted regardless of where each entry started. *)
  let q = Engine.Event_queue.create () in
  let deadlines = [ 3_600_000; 1; 17; 40_000; 250; 16; 999; 100_000; 2; 0 ] in
  List.iter
    (fun ms -> ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms ms) ms))
    deadlines;
  let drained =
    List.init (List.length deadlines) (fun _ ->
        snd (Option.get (Engine.Event_queue.pop q)))
  in
  Alcotest.(check (list int)) "drains sorted across horizons"
    (List.sort Int.compare deadlines) drained;
  Alcotest.(check bool) "empty at the end" true (Engine.Event_queue.size q = 0)

let test_queue_never_last () =
  (* "Never" entries ([Time.max_value]) share the last tick: they fire
     after every finite deadline, in insertion order among themselves,
     and a [pop_before] horizon of "never" still reaches them. *)
  let q = Engine.Event_queue.create () in
  let never = Engine.Time.max_value in
  let add time x = ignore (Engine.Event_queue.add q ~time x) in
  add never "never-1";
  add (Engine.Time.ms 5) "5ms";
  add never "never-2";
  add (Engine.Time.s 3_600) "1h";
  add (Engine.Time.of_ns64 0x3fff_ffff_ffff_fff0L) "almost-never";
  add never "never-3";
  add Engine.Time.zero "0";
  let drained =
    List.init 7 (fun _ ->
        Engine.Event_queue.pop_before q ~limit:never ~none:"none")
  in
  Alcotest.(check (list string)) "never fires last, in sequence order"
    [ "0"; "5ms"; "1h"; "almost-never"; "never-1"; "never-2"; "never-3" ]
    drained;
  Alcotest.check time "popped time is never" never
    (Engine.Event_queue.popped_time q);
  Alcotest.(check bool) "empty at the end" true (Engine.Event_queue.size q = 0)

let prop_queue_sorted_drain =
  QCheck2.Test.make ~name:"event queue drains in nondecreasing time order"
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 1_000))
    (fun times ->
      let q = Engine.Event_queue.create () in
      List.iter
        (fun ms -> ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms ms) ms))
        times;
      let rec drain acc =
        match Engine.Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let drained = drain [] in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> Engine.Time.(a <= b) && nondecreasing rest
        | _ -> true
      in
      List.length drained = List.length times && nondecreasing drained)

let prop_queue_matches_model =
  (* Random add/cancel/pop programs checked op-for-op against a naive
     list model ordered by (time, insertion sequence).  Times span
     100 ms, so programs exercise L0, L1 and cascades, and cancels of
     queued, fired and cancelled events. *)
  QCheck2.Test.make ~name:"wheel agrees with a sorted-list model"
    QCheck2.Gen.(list_size (int_range 1 300) (pair (int_range 0 2) (int_range 0 100)))
    (fun ops ->
      let q = Engine.Event_queue.create () in
      (* Model: (time_ms, id) kept in insertion order; a stable sort by
         time therefore yields (time, seq) order.  Handles are kept
         forever so cancels can hit popped/cancelled entries too. *)
      let model = ref [] in
      let handles = ref [||] in
      let next_id = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
              let id = !next_id in
              incr next_id;
              let h = Engine.Event_queue.add q ~time:(Engine.Time.ms x) id in
              handles := Array.append !handles [| (h, id) |];
              model := !model @ [ (x, id) ]
          | 1 ->
              if Array.length !handles > 0 then begin
                let h, id = !handles.(x mod Array.length !handles) in
                Engine.Event_queue.cancel q h;
                model := List.filter (fun (_, i) -> i <> id) !model
              end
          | _ -> (
              let got = Engine.Event_queue.pop q in
              match
                List.stable_sort (fun (ta, _) (tb, _) -> Int.compare ta tb) !model
              with
              | [] -> if got <> None then ok := false
              | (t, id) :: _ -> (
                  model := List.filter (fun (_, i) -> i <> id) !model;
                  match got with
                  | Some (tq, idq)
                    when Engine.Time.equal tq (Engine.Time.ms t) && idq = id ->
                      ()
                  | _ -> ok := false)))
        ops;
      !ok && Engine.Event_queue.size q = List.length !model)

(* Timer programs: [add], [cancel], [arm] (a re-arm when the timer is
   pending), [disarm], [pop_before] with a limit, [pop] and [peek_time],
   replayed on a queue of the given geometry ([None] = the default) and
   on a list model ordered by (time, seq); true iff they agree after
   every op.  An op is [(kind, horizon, x, pick)]: deadlines and limits
   are offsets from the last popped instant, drawn by [horizon] from
   [x] in the current tick, across the L0 ring, across L1 (to 4.3 s at
   the default geometry), just past L1, hours ahead, at
   [Time.max_value], in the past, or exactly [x] ns ahead; [pick] names
   a handle or one of four timers. *)
let run_timer_program geometry ops =
  let module Q = Engine.Event_queue in
  let q =
    match geometry with
    | None -> Q.create ()
    | Some (tick_bits, wheel_slots) -> Q.create ~tick_bits ~wheel_slots ()
  in
  let tick_bits, slots = Option.value geometry ~default:(12, 4096) in
  let l0 = (1 lsl tick_bits) * slots in
  let l1 = l0 * 256 in
  let offset horizon x =
    match horizon with
    | 0 -> x land ((1 lsl tick_bits) - 1)
    | 1 -> x mod l0
    | 2 -> x mod l1
    | 3 -> l1 + (x mod (2 * l1))
    | 4 -> max_int
    | 5 -> -(x mod 1_000_000)
    | 6 -> x
    | _ -> 3_600_000_000_000 + (x mod 3_600_000_000_000)
  in
  let now = ref 0 and seq = ref 0 and ok = ref true in
  let at horizon x =
    if horizon = 4 then Engine.Time.max_value
    else Engine.Time.add (Engine.Time.ns !now) (Engine.Time.ns (offset horizon x))
  in
  (* The model: pending (time, seq, payload); timers carry payload
     [-(i + 1)], handles their index. *)
  let model = ref [] in
  let timers = Array.init 4 (fun i -> Q.timer q (-(i + 1))) in
  let handles = ref [||] and states = ref [||] in
  let enqueue time id =
    model := ((time : Engine.Time.t :> int), !seq, id) :: !model;
    incr seq
  in
  let drop id = model := List.filter (fun (_, _, i) -> i <> id) !model in
  let earliest () =
    List.fold_left
      (fun acc ((t, s, _) as e) ->
        match acc with
        | Some (t', s', _) when t' < t || (t' = t && s' < s) -> acc
        | _ -> Some e)
      None !model
  in
  let fired id =
    drop id;
    if id >= 0 then !states.(id) <- `Fired
  in
  let check b = if not b then ok := false in
  List.iter
    (fun (kind, horizon, x, pick) ->
      (match kind with
      | 0 ->
          let time = at horizon x in
          let id = Array.length !handles in
          handles := Array.append !handles [| Q.add q ~time id |];
          states := Array.append !states [| `Pending |];
          enqueue time id
      | 1 ->
          let n = Array.length !handles in
          if n > 0 then begin
            let id = pick mod n in
            Q.cancel q !handles.(id);
            if !states.(id) = `Pending then begin
              drop id;
              !states.(id) <- `Cancelled
            end;
            check (Q.is_cancelled q !handles.(id) = (!states.(id) = `Cancelled))
          end
      | 2 ->
          let i = pick mod 4 and time = at horizon x in
          Q.arm q timers.(i) ~time;
          drop (-(i + 1));
          enqueue time (-(i + 1))
      | 3 ->
          let i = pick mod 4 in
          Q.disarm q timers.(i);
          drop (-(i + 1))
      | 4 -> (
          let limit = at horizon x in
          let got = Q.pop_before q ~limit ~none:min_int in
          match earliest () with
          | Some (t, _, id) when t <= (limit :> int) ->
              check (got = id && (Q.popped_time q :> int) = t);
              now := t;
              fired id
          | _ -> check (got == min_int))
      | 5 -> (
          match (Q.pop q, earliest ()) with
          | None, None -> ()
          | Some (t, id'), Some (t', _, id) ->
              check (id' = id && (t :> int) = t');
              now := t';
              fired id
          | _ -> ok := false)
      | _ ->
          check
            (Option.map (fun (t : Engine.Time.t) -> (t :> int)) (Q.peek_time q)
            = Option.map (fun (t, _, _) -> t) (earliest ())));
      check (Q.size q = List.length !model);
      Array.iteri
        (fun i tm ->
          check (Q.timer_armed tm = List.exists (fun (_, _, id) -> id = -(i + 1)) !model))
        timers)
    ops;
  (* Drain what is left: the model's order to the end. *)
  let rec drain () =
    match (Q.pop q, earliest ()) with
    | None, None -> ()
    | Some (t, id'), Some (t', _, id) ->
        check (id' = id && (t :> int) = t');
        fired id;
        drain ()
    | _ -> ok := false
  in
  drain ();
  !ok && Q.size q = 0

let prop_queue_timers_match_model =
  let geometry =
    QCheck2.Gen.(
      oneof
        [
          pure None;
          pure (Some (20, 1024));
          map2 (fun b k -> Some (b, 1 lsl k)) (int_range 1 3) (int_range 1 3);
        ])
  in
  let op =
    QCheck2.Gen.(quad (int_range 0 6) (int_range 0 7) (int_bound (1 lsl 42)) (int_bound 1_000))
  in
  let print (g, ops) =
    Printf.sprintf "%s: %s"
      (match g with None -> "default" | Some (b, k) -> Printf.sprintf "(%d, %d)" b k)
      (String.concat "; "
         (List.map (fun (k, h, x, p) -> Printf.sprintf "(%d,%d,%d,%d)" k h x p) ops))
  in
  QCheck2.Test.make ~name:"timers, cancels and bounded pops match a model" ~count:500 ~print
    QCheck2.Gen.(pair geometry (list_size (int_range 1 300) op))
    (fun (g, ops) -> run_timer_program g ops)

(* A sparse program, one event per 10 ms: 600 adds 10 ms apart (6 s,
   past L1 at the default geometry), popped with limits that reach
   one at a time, then a timer rearmed 10 ms after each firing.  Every
   tick in between is empty, so the bitmap skips whole words, the
   cursor crosses L1 blocks and the late adds migrate from the
   overflow heap. *)
let test_queue_sparse_program () =
  let ten_ms = 10_000_000 in
  let adds = List.init 600 (fun k -> (0, 6, (k + 1) * ten_ms, 0)) in
  let pops = List.init 600 (fun _ -> (4, 6, ten_ms, 0)) in
  let rearms = List.concat (List.init 600 (fun _ -> [ (2, 6, ten_ms, 0); (5, 0, 0, 0) ])) in
  List.iter
    (fun g ->
      Alcotest.(check bool) "agrees with the model" true
        (run_timer_program g (adds @ pops @ rearms)))
    [ None; Some (20, 1024); Some (1, 2); Some (3, 8) ]

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_runs_in_order () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 2) (fun () -> log := 2 :: !log));
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () -> log := 1 :: !log));
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "order" [ 1; 2 ] (List.rev !log);
  Alcotest.check time "clock at last event" (Engine.Time.ms 2) (Engine.Sim.now sim);
  Alcotest.(check int) "events executed" 2 (Engine.Sim.events_executed sim)

let test_sim_schedule_past_rejected () =
  let sim = Engine.Sim.create () in
  let raised = ref false in
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.ms 5) (fun () ->
         try ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () -> ()))
         with Invalid_argument _ -> raised := true));
  Engine.Sim.run sim;
  Alcotest.(check bool) "past rejected" true !raised

let test_sim_until () =
  let sim = Engine.Sim.create () in
  let ran = ref 0 in
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () -> incr ran));
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 10) (fun () -> incr ran));
  Engine.Sim.run sim ~until:(Engine.Time.ms 5);
  Alcotest.(check int) "one ran" 1 !ran;
  Alcotest.check time "clock at horizon" (Engine.Time.ms 5) (Engine.Sim.now sim);
  Alcotest.(check int) "pending" 1 (Engine.Sim.pending_events sim)

let test_sim_until_inclusive () =
  let sim = Engine.Sim.create () in
  let ran = ref false in
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 5) (fun () -> ran := true));
  Engine.Sim.run sim ~until:(Engine.Time.ms 5);
  Alcotest.(check bool) "event at horizon runs" true !ran

let test_sim_stop () =
  let sim = Engine.Sim.create () in
  let ran = ref 0 in
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () ->
         incr ran;
         Engine.Sim.stop sim));
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 2) (fun () -> incr ran));
  Engine.Sim.run sim;
  Alcotest.(check int) "stopped after first" 1 !ran

let test_sim_cancel () =
  let sim = Engine.Sim.create () in
  let ran = ref false in
  let h = Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () -> ran := true) in
  Engine.Sim.cancel sim h;
  Engine.Sim.run sim;
  Alcotest.(check bool) "cancelled never runs" false !ran

let test_sim_schedule_now_ordering () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () ->
         log := "first" :: !log;
         ignore (Engine.Sim.schedule_now sim (fun () -> log := "now" :: !log))));
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 1) (fun () -> log := "second" :: !log));
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "now runs after same-instant peers"
    [ "first"; "second"; "now" ] (List.rev !log)

let test_sim_every () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  Engine.Sim.every sim (Engine.Time.ms 10) (fun () -> incr count)
    ~stop:(fun () -> !count >= 3);
  Engine.Sim.run sim ~until:(Engine.Time.s 1);
  Alcotest.(check int) "fired until stop" 3 !count

let test_sim_every_stop_mid_period () =
  (* The stop flag flips between firings: the next due tick consumes
     its event, runs nothing, and disarms — no trailing tick remains
     pending afterwards. *)
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let halt = ref false in
  Engine.Sim.every sim (Engine.Time.ms 10) (fun () -> incr count)
    ~stop:(fun () -> !halt);
  ignore (Engine.Sim.schedule_at sim (Engine.Time.ms 25) (fun () -> halt := true));
  Engine.Sim.run sim ~until:(Engine.Time.ms 200);
  Alcotest.(check int) "two ticks before the stop" 2 !count;
  Alcotest.(check int) "tick disarmed, nothing pending" 0
    (Engine.Sim.pending_events sim);
  Alcotest.check time "clock still reaches the horizon" (Engine.Time.ms 200)
    (Engine.Sim.now sim)

let test_sim_until_empty_queue () =
  (* [run ~until] on a simulation with no events still advances the
     clock to the horizon. *)
  let sim = Engine.Sim.create () in
  Engine.Sim.run sim ~until:(Engine.Time.ms 50);
  Alcotest.check time "clock at horizon" (Engine.Time.ms 50) (Engine.Sim.now sim);
  Alcotest.(check int) "nothing executed" 0 (Engine.Sim.events_executed sim)

let test_timer_lifecycle () =
  let sim = Engine.Sim.create () in
  let fired = ref [] in
  let tm = Engine.Sim.Timer.create sim (fun () -> fired := Engine.Sim.now sim :: !fired) in
  Alcotest.(check bool) "fresh timer unarmed" false (Engine.Sim.Timer.is_armed tm);
  Engine.Sim.Timer.arm_at sim tm (Engine.Time.ms 5);
  Alcotest.(check bool) "armed" true (Engine.Sim.Timer.is_armed tm);
  (* Rearming replaces the pending occurrence: only the new deadline
     fires. *)
  Engine.Sim.Timer.arm_at sim tm (Engine.Time.ms 2);
  Engine.Sim.run sim;
  Alcotest.(check (list time)) "rearm replaced the deadline" [ Engine.Time.ms 2 ]
    (List.rev !fired);
  Alcotest.(check bool) "unarmed after firing" false (Engine.Sim.Timer.is_armed tm);
  (* Disarm really unschedules. *)
  Engine.Sim.Timer.arm_after sim tm (Engine.Time.ms 3);
  Engine.Sim.Timer.cancel sim tm;
  Alcotest.(check bool) "disarmed" false (Engine.Sim.Timer.is_armed tm);
  Alcotest.(check int) "eager disarm leaves nothing pending" 0
    (Engine.Sim.pending_events sim);
  Engine.Sim.run sim;
  (* Arm far beyond the wheel window (overflow heap), rearm short: the
     short deadline wins. *)
  Engine.Sim.Timer.arm_after sim tm (Engine.Time.s 60);
  Engine.Sim.Timer.arm_after sim tm (Engine.Time.ms 1);
  Engine.Sim.run sim;
  Alcotest.(check (list time)) "heap-to-wheel rearm"
    [ Engine.Time.ms 2; Engine.Time.ms 3 ] (List.rev !fired)

let test_timer_past_rejected () =
  let sim = Engine.Sim.create () in
  let tm = Engine.Sim.Timer.create sim (fun () -> ()) in
  let raised = ref false in
  ignore
    (Engine.Sim.schedule_at sim (Engine.Time.ms 5) (fun () ->
         (try Engine.Sim.Timer.arm_at sim tm (Engine.Time.ms 1)
          with Invalid_argument _ -> raised := true);
         try Engine.Sim.Timer.arm_after sim tm (Engine.Time.ns (-1))
         with Invalid_argument _ -> ()));
  Engine.Sim.run sim;
  Alcotest.(check bool) "past arm rejected" true !raised;
  Alcotest.(check bool) "failed arms left the timer unarmed" false
    (Engine.Sim.Timer.is_armed tm)

let test_timer_rearm_seq_ordering () =
  (* Rearming takes a fresh insertion sequence number, exactly as
     cancel-then-add would: a one-shot scheduled for the same instant
     BEFORE the rearm runs first; the rearmed timer runs after it. *)
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let tm = ref None in
  let timer =
    Engine.Sim.Timer.create sim (fun () ->
        log := "timer" :: !log;
        if Engine.Time.equal (Engine.Sim.now sim) (Engine.Time.ms 1) then begin
          ignore
            (Engine.Sim.schedule_at sim (Engine.Time.ms 2) (fun () ->
                 log := "oneshot" :: !log));
          Engine.Sim.Timer.arm_at sim (Option.get !tm) (Engine.Time.ms 2)
        end)
  in
  tm := Some timer;
  Engine.Sim.Timer.arm_at sim timer (Engine.Time.ms 1);
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "rearm sequences after the earlier one-shot"
    [ "timer"; "oneshot"; "timer" ] (List.rev !log)

let test_sim_max_events () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  Engine.Sim.every sim (Engine.Time.ms 1) (fun () -> incr count) ~stop:(fun () -> false);
  Engine.Sim.run ~max_events:5 sim;
  Alcotest.(check bool) "bounded" true (!count <= 5)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_online_known () =
  let acc = Engine.Stats.Online.create () in
  List.iter (Engine.Stats.Online.add acc) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Engine.Stats.Online.count acc);
  Alcotest.(check (float 1e-9)) "mean" 5. (Engine.Stats.Online.mean acc);
  Alcotest.(check (float 1e-9)) "min" 2. (Engine.Stats.Online.min acc);
  Alcotest.(check (float 1e-9)) "max" 9. (Engine.Stats.Online.max acc)

let test_online_merge () =
  let a = Engine.Stats.Online.create () and b = Engine.Stats.Online.create () in
  let all = Engine.Stats.Online.create () in
  List.iter
    (fun x ->
      Engine.Stats.Online.add all x;
      if x < 5. then Engine.Stats.Online.add a x else Engine.Stats.Online.add b x)
    [ 1.; 2.; 3.; 6.; 7.; 8.; 9. ];
  let merged = Engine.Stats.Online.merge a b in
  Alcotest.(check int) "merged count" 7 (Engine.Stats.Online.count merged);
  Alcotest.(check (float 1e-9)) "merged mean" (Engine.Stats.Online.mean all)
    (Engine.Stats.Online.mean merged);
  Alcotest.(check (float 0.)) "merged min" 1. (Engine.Stats.Online.min merged);
  Alcotest.(check (float 0.)) "merged max" 9. (Engine.Stats.Online.max merged)

let test_percentiles () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  Alcotest.(check (float 1e-9)) "median" 35. (Engine.Stats.percentile xs 50.);
  Alcotest.(check (float 1e-9)) "p0" 15. (Engine.Stats.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Engine.Stats.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 20. (Engine.Stats.percentile xs 25.)

let test_samples_basic () =
  (* Past the initial 64-slot array the buffer doubles; every sample
     comes back in insertion order. *)
  let s = Engine.Stats.Samples.create () in
  Alcotest.(check (array (float 0.))) "empty" [||] (Engine.Stats.Samples.to_array s);
  let xs = Array.init 200 (fun i -> float_of_int ((i * 37) mod 101)) in
  Array.iter (Engine.Stats.Samples.add s) xs;
  Alcotest.(check (array (float 0.))) "to_array keeps insertion order" xs
    (Engine.Stats.Samples.to_array s)

let prop_online_matches_direct =
  QCheck2.Test.make ~name:"Welford matches direct mean"
    QCheck2.Gen.(list_size (int_range 1 100) (float_range (-1000.) 1000.))
    (fun xs ->
      let acc = Engine.Stats.Online.create () in
      List.iter (Engine.Stats.Online.add acc) xs;
      let direct = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Engine.Stats.Online.mean acc -. direct) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Timeseries / Trace *)

let test_timeseries_basic () =
  let ts = Engine.Timeseries.create () in
  Engine.Timeseries.record ts (Engine.Time.ms 1) 1.;
  Engine.Timeseries.record ts (Engine.Time.ms 3) 3.;
  Alcotest.(check (list (pair time (float 0.)))) "points in order"
    [ (Engine.Time.ms 1, 1.); (Engine.Time.ms 3, 3.) ]
    (Array.to_list (Engine.Timeseries.points ts))

let test_timeseries_backwards_rejected () =
  let ts = Engine.Timeseries.create () in
  Engine.Timeseries.record ts (Engine.Time.ms 2) 1.;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timeseries.record: time went backwards") (fun () ->
      Engine.Timeseries.record ts (Engine.Time.ms 1) 2.)

let test_timeseries_resample () =
  let ts = Engine.Timeseries.create () in
  Engine.Timeseries.record ts (Engine.Time.ms 5) 10.;
  Engine.Timeseries.record ts (Engine.Time.ms 15) 20.;
  let samples =
    Engine.Timeseries.resample ts ~step:(Engine.Time.ms 10) ~stop:(Engine.Time.ms 20)
  in
  Alcotest.(check int) "sample count" 3 (Array.length samples);
  Alcotest.(check (float 1e-9)) "before first repeats first" 10. (snd samples.(0));
  Alcotest.(check (float 1e-9)) "mid" 10. (snd samples.(1));
  Alcotest.(check (float 1e-9)) "after second" 20. (snd samples.(2));
  let exact =
    Engine.Timeseries.resample ts ~step:(Engine.Time.ms 5) ~stop:(Engine.Time.ms 15)
  in
  Alcotest.(check (float 1e-9)) "at a recorded instant" 20. (snd exact.(3))

let test_every_invalid_period () =
  let sim = Engine.Sim.create () in
  Alcotest.check_raises "zero period" (Invalid_argument "Sim.every: period must be positive")
    (fun () -> Engine.Sim.every sim Engine.Time.zero (fun () -> ()) ~stop:(fun () -> true))

let test_negative_time_pp () =
  Alcotest.(check string) "sign rendered" "-2.50ms"
    (Engine.Time.to_string (Engine.Time.diff Engine.Time.zero (Engine.Time.us 2_500)))

let test_trace_registry () =
  let tr = Engine.Trace.create () in
  Engine.Trace.record tr "a/x" (Engine.Time.ms 1) 1.;
  Engine.Trace.record tr "b/y" (Engine.Time.ms 2) 2.;
  Engine.Trace.record tr "a/x" (Engine.Time.ms 3) 3.;
  let length key =
    Option.map
      (fun ts -> Array.length (Engine.Timeseries.points ts))
      (Engine.Trace.find tr key)
  in
  Alcotest.(check (option int)) "series length" (Some 2) (length "a/x");
  Alcotest.(check (option int)) "second series" (Some 1) (length "b/y");
  Alcotest.(check bool) "find missing" true (Engine.Trace.find tr "zzz" = None)

let test_trace_events () =
  let tr = Engine.Trace.create () in
  Alcotest.(check int) "empty" 0 (List.length (Engine.Trace.events tr));
  Engine.Trace.record_event tr Engine.Trace.Fault ~subject:"link/a" ~detail:"down"
    (Engine.Time.ms 10);
  Engine.Trace.record_event tr Engine.Trace.Recovery ~subject:"link/a" ~detail:"up"
    (Engine.Time.ms 30);
  Engine.Trace.record_event tr Engine.Trace.Abort ~subject:"xfer" (Engine.Time.ms 20);
  let evs = Engine.Trace.events tr in
  Alcotest.(check int) "count" 3 (List.length evs);
  Alcotest.(check (list string)) "insertion order preserved"
    [ "link/a"; "link/a"; "xfer" ]
    (List.map (fun e -> e.Engine.Trace.subject) evs);
  Alcotest.(check string) "kind names" "fault,recovery,abort"
    (String.concat ","
       (List.map Engine.Trace.kind_to_string
          [ Engine.Trace.Fault; Engine.Trace.Recovery; Engine.Trace.Abort ]));
  let buf = Buffer.create 64 in
  Engine.Trace.events_to_csv tr buf;
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
  Alcotest.(check int) "csv: header + one row per event" 4 (List.length lines);
  Alcotest.(check string) "csv header" "time_s,kind,subject,detail" (List.hd lines);
  Alcotest.(check string) "pp" "[10.00ms] fault link/a: down"
    (Format.asprintf "%a" Engine.Trace.pp_event (List.hd evs))

let test_trace_events_csv_roundtrip () =
  let tr = Engine.Trace.create () in
  let kinds =
    [ Engine.Trace.Fault; Engine.Trace.Recovery; Engine.Trace.Abort;
      Engine.Trace.Rebuild; Engine.Trace.Resume; Engine.Trace.Exhausted;
      Engine.Trace.Refused; Engine.Trace.Oom_kill; Engine.Trace.Overload_enter;
      Engine.Trace.Overload_exit ]
  in
  List.iteri
    (fun i kind ->
      (* Details with commas must survive the round trip. *)
      Engine.Trace.record_event tr kind
        ~subject:(Printf.sprintf "s/%d" i)
        ~detail:(Printf.sprintf "detail %d, with, commas" i)
        (Engine.Time.ms (10 * (i + 1))))
    kinds;
  let buf = Buffer.create 256 in
  Engine.Trace.events_to_csv tr buf;
  let parsed = Engine.Trace.events_of_csv (Buffer.contents buf) in
  Alcotest.(check int) "all rows parsed" (List.length kinds) (List.length parsed);
  Alcotest.(check bool) "round trip is lossless" true
    (parsed = Engine.Trace.events tr);
  (* The first row is the fault event: swap its kind for an unknown one. *)
  let row = List.nth (String.split_on_char '\n' (Buffer.contents buf)) 1 in
  let comma = String.index row ',' in
  let bogus =
    String.sub row 0 comma ^ ",bogus"
    ^ String.sub row (comma + 6) (String.length row - comma - 6)
  in
  Alcotest.(check int) "the row parses" 1 (List.length (Engine.Trace.events_of_csv row));
  Alcotest.(check int) "unknown kind rejected" 0
    (List.length (Engine.Trace.events_of_csv bogus));
  Alcotest.(check int) "garbage lines skipped" 0
    (List.length (Engine.Trace.events_of_csv "not,a,valid\nrow\n"))

(* The binary search that bandwidth-weighted relay draws used before
   the guide table, frozen as the reference: the first index whose
   cumulative weight exceeds [u], or the last index if none does. *)
let ref_weighted_index cum u =
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) <= u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Left-to-right cumulative sums, the order [Rng.Weighted.create]
   promises. *)
let cumulative weights =
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc)
    weights

(* [n] weights of one shape: uniform, mostly zeros, one dominant
   weight, Pareto and lognormal tails, or all equal (every cumulative
   weight then sits exactly on a bucket edge).  Never all zero. *)
let gen_weights ~seed ~shape n =
  let r = Engine.Rng.create seed in
  let w =
    match shape with
    | 0 -> Array.init n (fun _ -> Engine.Rng.float r 1_000.)
    | 1 ->
        Array.init n (fun _ ->
            if Engine.Rng.bernoulli r 0.7 then 0. else Engine.Rng.float r 10.)
    | 2 ->
        let w = Array.init n (fun _ -> Engine.Rng.float r 1.) in
        w.(Engine.Rng.int r n) <- 1e9;
        w
    | 3 ->
        (* Pareto by inversion, shape in [0.5, 1.5), scale 1. *)
        let shape = 0.5 +. Engine.Rng.float r 1. in
        Array.init n (fun _ -> 1. /. Float.pow (1. -. Engine.Rng.float r 1.) (1. /. shape))
    | 4 -> Array.init n (fun _ -> Engine.Rng.lognormal r ~mu:0. ~sigma:3.)
    | _ -> Array.make n 1.
  in
  if Array.for_all (fun x -> x = 0.) w then w.(Engine.Rng.int r n) <- 1.;
  w

let prop_weighted_matches_binary_search =
  QCheck2.Test.make ~name:"Rng.Weighted.draw matches a binary search" ~count:200
    QCheck2.Gen.(quad int (int_range 1 3_000) (int_range 0 5) int)
    (fun (data_seed, n, shape, seed) ->
      let module W = Engine.Rng.Weighted in
      let weights = gen_weights ~seed:data_seed ~shape n in
      let cum = cumulative weights in
      let total = cum.(n - 1) in
      let w = W.create weights in
      let rng = Engine.Rng.create seed in
      let draws_agree =
        List.for_all
          (fun _ ->
            let u = Engine.Rng.float (Engine.Rng.copy rng) total in
            let i = W.draw w rng in
            i = ref_weighted_index cum u && W.find w u = i)
          (List.init 500 Fun.id)
      in
      (* Bucket-edge errors show at the cumulative weights themselves:
         search each one and its floating-point neighbours. *)
      let edges_agree =
        Array.for_all
          (fun c ->
            List.for_all
              (fun x -> W.find w x = ref_weighted_index cum x)
              [ Float.pred c; c; Float.succ c ])
          cum
      in
      draws_agree && edges_agree)

(* A buffer of slot streams against the splits it stands for: [n]
   successive [Rng.split]s of one parent, and [Streams.split] of a
   parent with the same seed.  The draws hop between streams in a
   random order and mix the three indexed kinds, so a stream that
   read or wrote its neighbour's bytes, or started one split off,
   shows; afterwards both parents must be at the same state. *)
type stream_op = Coin of float | Think of float | Pick

let prop_streams_match_splits =
  let op =
    QCheck2.Gen.(
      oneof
        [ map (fun p -> Coin p) (float_range 0. 1.);
          map (fun m -> Think m) (float_range 1e-6 100.);
          pure Pick ])
  in
  QCheck2.Test.make ~name:"Rng.Streams stream i is the i-th Rng.split" ~count:300
    QCheck2.Gen.(
      triple int (int_range 1 64) (list_size (int_range 0 300) (pair nat op)))
    (fun (seed, n, ops) ->
      let module R = Engine.Rng in
      let w = R.Weighted.create (Array.init 37 (fun i -> float_of_int ((i * 7 mod 11) + 1))) in
      let parent = R.create seed and flat_parent = R.create seed in
      let splits = Array.init n (fun _ -> R.split parent) in
      let streams = R.Streams.split flat_parent n in
      List.for_all
        (fun (k, op) ->
          let i = k mod n in
          match op with
          | Coin p -> R.bernoulli splits.(i) p = R.Streams.bernoulli streams i p
          | Think mean ->
              R.exponential_ns splits.(i) ~mean = R.Streams.exponential_ns streams i ~mean
          | Pick -> R.Weighted.draw w splits.(i) = R.Streams.weighted streams i w)
        ops
      && Int64.equal (R.bits64 parent) (R.bits64 flat_parent))

let test_rng_weighted_edges () =
  let module W = Engine.Rng.Weighted in
  (* A uniform at the total (the largest one below 1 never rounds up
     to it, but [find] keeps the binary search's fallback) gives the
     last index, even when its weight is zero. *)
  let weights = [| 0.; 0.; 1.; 1. -. epsilon_float; 0. |] in
  let w = W.create weights in
  let total = (cumulative weights).(4) in
  Alcotest.(check (float 0.)) "total" (2. -. epsilon_float) total;
  Alcotest.(check int) "uniform 0: first positive weight" 2 (W.find w 0.);
  Alcotest.(check int) "uniform at the total: last index" 4 (W.find w total);
  Alcotest.(check int) "reference agrees" 4
    (ref_weighted_index (cumulative weights) total);
  Alcotest.(check int) "single weight" 0 (W.find (W.create [| 5. |]) 4.9);
  (* A subnormal total overflows n / total: one bucket, still exact. *)
  let tiny = W.create [| 0.; 0.; 5e-324 |] in
  Alcotest.(check int) "subnormal total" 2 (W.find tiny 0.)

let test_rng_weighted_errors () =
  let module W = Engine.Rng.Weighted in
  let rejects name weights =
    match W.create weights with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "empty" [||];
  rejects "zero total" [| 0.; 0. |];
  rejects "negative weight" [| -1.; 2. |];
  rejects "NaN weight" [| 1.; Float.nan |];
  rejects "infinite weight" [| 1.; Float.infinity |];
  rejects "total overflows" [| Float.max_float; Float.max_float |]

(* [exponential_ns] is [Time.of_sec_f] of [exponential] on the same
   stream, for means from nanoseconds to past the saturation point (a
   mean of 1e8 s reaches 2^62 ns at u below about e^-46, rarely; 1e12
   s saturates often, and 1e300 s overflows to a non-finite duration,
   which both reject). *)
let prop_exponential_ns_matches_of_sec_f =
  QCheck2.Test.make ~name:"Rng.exponential_ns is Time.of_sec_f of Rng.exponential"
    ~count:200
    QCheck2.Gen.(pair int (oneofl [ 1e-9; 3e-7; 0.02; 0.5; 1.; 7.25; 1e8; 1e12; 1e300 ]))
    (fun (seed, mean) ->
      let rng = Engine.Rng.create seed in
      let ns t =
        match Engine.Rng.exponential_ns t ~mean with
        | n -> Some n
        | exception Invalid_argument _ -> None
      in
      let reference t =
        match Engine.Time.of_sec_f (Engine.Rng.exponential t ~mean) with
        | d -> Some (d :> int)
        | exception Invalid_argument _ -> None
      in
      List.for_all
        (fun _ ->
          let expected = reference (Engine.Rng.copy rng) in
          ns rng = expected)
        (List.init 200 Fun.id))

(* ------------------------------------------------------------------ *)
(* Allocation: the primitives every layer calls must not allocate *)

(* Minor words allocated by [n] calls of [f]. *)
let words_for n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. before

(* Steady-state minor words per call: the difference between a long and
   a short loop cancels every fixed cost (the loop, the counter reads),
   so an operation that allocates nothing reads exactly 0. *)
let words_per_call f =
  ignore (words_for 1_000 f);
  let short = words_for 10_000 f in
  let long = words_for 110_000 f in
  (long -. short) /. 100_000.

let check_no_alloc name f =
  Alcotest.(check (float 0.)) (name ^ ": minor words per call") 0. (words_per_call f)

let test_alloc_rng () =
  let rng = Engine.Rng.create 11 in
  let sink = ref 0 in
  check_no_alloc "Rng.int" (fun () -> sink := !sink + Engine.Rng.int rng 1_000);
  check_no_alloc "Rng.int near max_int" (fun () ->
      sink := !sink lxor Engine.Rng.int rng (max_int - 7))

let test_alloc_weighted () =
  let rng = Engine.Rng.create 13 in
  (* A consensus-sized table with skewed weights. *)
  let w =
    Engine.Rng.Weighted.create
      (Array.init 2_200 (fun _ -> Engine.Rng.lognormal rng ~mu:0. ~sigma:2.))
  in
  let sink = ref 0 in
  check_no_alloc "Rng.Weighted.draw" (fun () ->
      sink := !sink + Engine.Rng.Weighted.draw w rng);
  check_no_alloc "Rng.bernoulli" (fun () ->
      if Engine.Rng.bernoulli rng 0.3 then incr sink)

(* A loss coin per packet on a lossy link: both models read their
   probabilities from the stored model, so [decide] boxes nothing. *)
let test_alloc_faults_decide () =
  let rng = Engine.Rng.create 19 and sink = ref 0 in
  let decide model =
    let st = Netsim.Faults.loss_state model in
    fun () -> if Netsim.Faults.decide st rng then incr sink
  in
  check_no_alloc "Faults.decide Bernoulli"
    (decide (Netsim.Faults.Bernoulli 0.3));
  check_no_alloc "Faults.decide Gilbert_elliott"
    (decide
       (Netsim.Faults.Gilbert_elliott
          { p_good_to_bad = 0.2; p_bad_to_good = 0.4; loss_good = 0.05;
            loss_bad = 0.6 }))

(* The consensus engine's think time and TTLB record: the float stays
   inside [Rng] and [Stats], so neither call boxes one.  The mean is a
   constant, as [think] passes a stored field. *)
let test_alloc_exponential_ns () =
  let rng = Engine.Rng.create 17 in
  let sk = Engine.Stats.Sketch.create ~bins:64 ~lo:0. ~hi:8. () in
  let sink = ref 0 in
  check_no_alloc "Rng.exponential_ns" (fun () ->
      sink := !sink + Engine.Rng.exponential_ns rng ~mean:0.5);
  check_no_alloc "Sketch.add_ns" (fun () ->
      sink := (!sink + 123_456_789) land 0x3_ffff_ffff;
      Engine.Stats.Sketch.add_ns sk !sink)

let test_alloc_time () =
  let t = ref Engine.Time.zero and d = Engine.Time.ns 7 in
  check_no_alloc "Time.add" (fun () -> t := Engine.Time.add !t d)

let test_alloc_transmission_time () =
  let r = Engine.Units.Rate.mbit 3 and t = ref Engine.Time.zero in
  let bytes = ref 0 in
  check_no_alloc "Rate.transmission_time" (fun () ->
      bytes := (!bytes + 509) land 0xffff;
      t := Engine.Units.Rate.transmission_time r !bytes)

(* [Online.add] on a float the caller already holds boxed (the
   constants here): the accumulator is an all-float record, so [add]
   rewrites its fields in place and allocates nothing. *)
let test_alloc_online () =
  let acc = Engine.Stats.Online.create () and i = ref 0 in
  check_no_alloc "Online.add" (fun () ->
      incr i;
      Engine.Stats.Online.add acc (if !i land 1 = 0 then 0.25 else 4.5));
  Alcotest.(check int) "every sample counted" !i (Engine.Stats.Online.count acc);
  Alcotest.(check (float 0.)) "min" 0.25 (Engine.Stats.Online.min acc);
  Alcotest.(check (float 0.)) "max" 4.5 (Engine.Stats.Online.max acc)

(* [Sketch.add] likewise: the bin counters are ints and the running
   min/max/sum sit in an all-float record, so an in-range sample, an
   overflow and an underflow all cost nothing. *)
let test_alloc_sketch () =
  let sk = Engine.Stats.Sketch.create ~bins:64 ~lo:0. ~hi:8. () and i = ref 0 in
  check_no_alloc "Sketch.add" (fun () ->
      incr i;
      Engine.Stats.Sketch.add sk
        (match !i land 3 with 0 -> 0.25 | 1 -> 4.5 | 2 -> 9.75 | _ -> -1.5));
  Alcotest.(check int) "every sample counted" !i (Engine.Stats.Sketch.count sk);
  Alcotest.(check (float 0.)) "min" (-1.5) (Engine.Stats.Sketch.min sk);
  Alcotest.(check (float 0.)) "max" 9.75 (Engine.Stats.Sketch.max sk)

(* One self-rearming timer fired [n] times inside a single [Sim.run]:
   the minor words the whole run allocates. *)
let timer_run_words n =
  let sim = Engine.Sim.create () in
  let fired = ref 0 in
  let self = ref None in
  let delay = Engine.Time.us 10 in
  let tick () =
    incr fired;
    if !fired < n then Engine.Sim.Timer.arm_after sim (Option.get !self) delay
  in
  let timer = Engine.Sim.Timer.create sim tick in
  self := Some timer;
  Engine.Sim.Timer.arm_after sim timer delay;
  let before = Gc.minor_words () in
  Engine.Sim.run sim;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every firing ran" n !fired;
  words

let test_alloc_timer () =
  ignore (timer_run_words 1_000);
  let short = timer_run_words 10_000 in
  let long = timer_run_words 100_000 in
  Alcotest.(check (float 0.)) "Sim.Timer rearm: minor words per firing" 0.
    ((long -. short) /. 90_000.)

(* A self-rearming timer fired [n] times at one horizon [delay]; each
   firing also arms a watchdog at the same horizon (from idle, or a
   re-arm while it is pending) and disarms it every other firing.  The
   minor words the whole run allocates. *)
let horizon_run_words delay n =
  let sim = Engine.Sim.create () in
  let fired = ref 0 and self = ref None in
  let watchdog = Engine.Sim.Timer.create sim (fun () -> Alcotest.fail "watchdog fired") in
  (* The watchdog is armed after the timer, for the same instant, so it
     always has the later sequence number and is superseded in time. *)
  let tick () =
    incr fired;
    if !fired < n then begin
      Engine.Sim.Timer.arm_after sim (Option.get !self) delay;
      Engine.Sim.Timer.arm_after sim watchdog delay;
      if !fired land 1 = 0 then Engine.Sim.Timer.cancel sim watchdog
    end
    else Engine.Sim.Timer.cancel sim watchdog
  in
  let timer = Engine.Sim.Timer.create sim tick in
  self := Some timer;
  Engine.Sim.Timer.arm_after sim timer delay;
  let before = Gc.minor_words () in
  Engine.Sim.run sim;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every firing ran" n !fired;
  words

(* L0 (10 us), L1 (1 s) and the overflow heap (1 h): the wheel's
   containers hold slot ids, so no level allocates. *)
let test_alloc_timer_horizons () =
  List.iter
    (fun (level, delay) ->
      ignore (horizon_run_words delay 1_000);
      let short = horizon_run_words delay 10_000 in
      let long = horizon_run_words delay 100_000 in
      Alcotest.(check (float 0.))
        (level ^ ": minor words per arm, disarm and firing")
        0.
        ((long -. short) /. 90_000.))
    [ ("L0", Engine.Time.us 10); ("L1", Engine.Time.s 1); ("overflow", Engine.Time.s 3_600) ]

(* Timers at each level, disarmed or fired, then dropped: the queue
   keeps no entry that is not queued, so each timer and its payload are
   collected while the queue lives on. *)
let[@inline never] queue_dropped_timers q timers payloads =
  List.iteri
    (fun i delay ->
      for fire = 0 to 1 do
        let payload = ref i in
        let tm = Engine.Event_queue.timer q payload in
        Weak.set payloads ((2 * i) + fire) (Some payload);
        Weak.set timers ((2 * i) + fire) (Some tm);
        Engine.Event_queue.arm q tm ~time:delay;
        if fire = 0 then Engine.Event_queue.disarm q tm
      done)
    [ Engine.Time.ms 1; Engine.Time.s 1; Engine.Time.s 3_600 ];
  for _ = 1 to 3 do
    ignore (Engine.Event_queue.pop_before q ~limit:(Engine.Time.s 3_600) ~none:(ref (-1)))
  done

let test_queue_timers_released () =
  let q = Engine.Event_queue.create () in
  let keep = ref 99 in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.s 36_000) keep);
  let timers = Weak.create 6 and payloads = Weak.create 6 in
  queue_dropped_timers q timers payloads;
  Gc.full_major ();
  for i = 0 to 5 do
    let what = Printf.sprintf "timer %d (%s)" i (if i land 1 = 0 then "disarmed" else "fired") in
    Alcotest.(check bool) (what ^ " collected") true (Weak.get timers i = None);
    Alcotest.(check bool) (what ^ ": payload collected") true (Weak.get payloads i = None)
  done;
  Alcotest.(check int) "the queue lives on" 1 (Engine.Event_queue.size q)

(* A cancelled one-shot leaves the queue at once: no later pop or sweep
   is needed before its payload can be collected. *)
let[@inline never] add_and_cancel q payloads =
  List.iteri
    (fun i time ->
      let payload = ref i in
      Weak.set payloads i (Some payload);
      Engine.Event_queue.cancel q (Engine.Event_queue.add q ~time payload))
    [ Engine.Time.ms 1; Engine.Time.s 1; Engine.Time.s 3_600 ]

let test_queue_cancel_released () =
  let q = Engine.Event_queue.create () in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 2) (ref 99));
  let payloads = Weak.create 3 in
  add_and_cancel q payloads;
  Gc.full_major ();
  for i = 0 to 2 do
    Alcotest.(check bool) (Printf.sprintf "payload %d collected" i) true
      (Weak.get payloads i = None)
  done;
  Alcotest.(check int) "the queue lives on" 1 (Engine.Event_queue.size q)

(* A paced leaf -> hub -> leaf stream over a three-leaf star, [n]
   sends long: the minor words the whole run allocates.  The caller
   builds one packet and sends it again on every tick (the substrate
   keeps no per-packet state), two at a time so the access link queues
   the second behind the first, each with a transmit callback. *)
let forward_run_words n =
  let sim = Engine.Sim.create () in
  let rate = Engine.Units.Rate.mbit 10 and delay = Engine.Time.ms 5 in
  let topo, _hub, leaves =
    Netsim.Topology.star sim ~hub:"hub"
      ~leaves:[ ("a", rate, delay); ("b", rate, delay); ("c", rate, delay) ]
      ()
  in
  let net = Netsim.Network.create topo in
  let a, b = match leaves with a :: b :: _ -> (a, b) | _ -> assert false in
  let delivered = ref 0 and transmitted = ref 0 in
  Netsim.Network.set_local_handler net b (fun _ -> incr delivered);
  let on_transmit = Some (fun _ -> incr transmitted) in
  let p = Netsim.Network.make_packet net ~src:a ~dst:b ~size:514 (Netsim.Payload.Raw "") in
  let sent = ref 0 in
  let self = ref None in
  (* Two 514-byte cells (411 us each at 10 Mbit/s) per 1 ms tick. *)
  let tick () =
    Netsim.Network.send net ?on_transmit p;
    Netsim.Network.send net ?on_transmit p;
    sent := !sent + 2;
    if !sent < n then Engine.Sim.Timer.arm_after sim (Option.get !self) (Engine.Time.ms 1)
  in
  let timer = Engine.Sim.Timer.create sim tick in
  self := Some timer;
  Engine.Sim.Timer.arm_after sim timer (Engine.Time.ms 1);
  let before = Gc.minor_words () in
  Engine.Sim.run sim;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every packet delivered" n !delivered;
  Alcotest.(check int) "every send transmitted once" n !transmitted;
  words

let test_alloc_forwarding () =
  ignore (forward_run_words 1_000);
  let short = forward_run_words 10_000 in
  let long = forward_run_words 100_000 in
  (* Two hops per packet. *)
  Alcotest.(check (float 0.)) "leaf->hub->leaf: minor words per hop" 0.
    ((long -. short) /. 180_000.)

let leaf_star sim n =
  let rate = Engine.Units.Rate.mbit 10 and delay = Engine.Time.ms 5 in
  let topo, _, _ =
    Netsim.Topology.star sim ~hub:"hub"
      ~leaves:(List.init (n - 1) (fun i -> (Printf.sprintf "l%d" i, rate, delay)))
      ()
  in
  Alcotest.(check int) "nodes" n (Netsim.Topology.node_count topo);
  topo

(* Route set-up on the flash crowd's hub: a star of 217 leaves, so
   n = 218 nodes and 2 (n - 1) links.  Only the hub runs Dijkstra and
   keeps a row; each leaf forwards over its uplink.  [Topology.out_links]
   returns a leaf's own one-link array, so no leaf's links are copied.
   In words, [Network.create] allocates
   - the array of out-link arrays, n + 1, and a copy of the hub's
     out-links (its storage has spare capacity), n;
   - the uplink, row and local-handler arrays and the hub's row,
     4 (n + 1);
   - the Dijkstra scratch: 4 (n + 1) for the neighbour links,
     distances, predecessors and visited flags, and about 4 n for the
     two heap arrays of 2 n - 1 slots (allocated major, being longer
     than 256 words, so not counted here);
   - per link a receiver closure of 5 words in a [Some] of 2,
     14 (n - 1);
   about 24 n plus a constant in all (5,347 words), hence the 26 n
   bound.  An n x n forwarding table alone would be n^2 = 218 n
   words. *)
let test_alloc_network_create () =
  let topo = leaf_star (Engine.Sim.create ()) 218 in
  let n = Netsim.Topology.node_count topo in
  let before = Gc.minor_words () in
  ignore (Netsim.Network.create topo : Netsim.Network.t);
  let words = Gc.minor_words () -. before in
  let bound = 26. *. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "Network.create: %.0f minor words < 26 n = %.0f" words bound)
    true (words < bound)

(* What a network retains beyond its topology, on a 4001-node star.
   Rows longer than 256 words are allocated straight on the major heap,
   where [Gc.minor_words] misses them, so this counts the words
   reachable from the network that were not reachable from the
   topology before.  Per node that is a word each of the uplink, row
   and local-handler arrays and of the hub's row, and per leaf two
   receiver closures in their [Some]s, 2 x 7: 18 words.  The bound,
   24 words per node, leaves room for a different closure layout; an
   n x n table alone would be 4001 words per node. *)
let test_retained_network_create () =
  let topo = leaf_star (Engine.Sim.create ()) 4001 in
  let n = Netsim.Topology.node_count topo in
  let topo_words = Obj.reachable_words (Obj.repr topo) in
  let net = Netsim.Network.create topo in
  let per_node =
    float_of_int (Obj.reachable_words (Obj.repr net) - topo_words) /. float_of_int n
  in
  Alcotest.(check bool)
    (Printf.sprintf "Network.create retains %.1f words per node < 24" per_node)
    true (per_node < 24.)

(* [n] feedbacks of a stream that drives a controller through its whole
   cycle: clean (40 ms, with 0.2 ms of jitter so the predictive model
   stays identifiable) until a ramp-up window reaches 32 cells, queued
   (80 ms) while it stays in ramp-up beyond that, clean again in
   avoidance.  With [adaptive], calm avoidance rounds re-enter ramp-up,
   so CircuitStart and slow start cycle between the phases for good;
   predictive stays in avoidance, replanning every round.  Returns the
   minor words and the calls, split by the phase a call started in. *)
let feedback_words strategy n =
  let params = { Circuitstart.Params.default with adaptive = true; re_probe_after = 2 } in
  let ctl = Circuitstart.Controller.create ~params strategy in
  let words = [| 0.; 0. |] and calls = [| 0; 0 |] in
  for i = 1 to n do
    let phase, rtt_us =
      match Circuitstart.Controller.phase ctl with
      | Circuitstart.Controller.Ramp_up ->
          let queued = Circuitstart.Controller.cwnd ctl >= 32 in
          (0, if queued then 80_000 else 40_000 + (i land 1 * 200))
      | Circuitstart.Controller.Avoidance -> (1, 40_000 + (i land 1 * 200))
    in
    let now = Engine.Time.ms i and rtt = Engine.Time.us rtt_us in
    let before = Gc.minor_words () in
    Circuitstart.Controller.on_feedback ctl ~now ~rtt ();
    words.(phase) <- words.(phase) +. (Gc.minor_words () -. before);
    calls.(phase) <- calls.(phase) + 1
  done;
  (words, calls, Circuitstart.Controller.ramp_up_exits ctl)

let test_alloc_feedback () =
  List.iter
    (fun (name, strategy, cycles) ->
      let short_w, short_c, _ = feedback_words strategy 20_000 in
      let long_w, long_c, exits = feedback_words strategy 120_000 in
      List.iteri
        (fun phase label ->
          let extra = long_c.(phase) - short_c.(phase) in
          if cycles || phase = 1 then
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s calls measured" name label)
              true (extra > 0);
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s: minor words per %s call" name label)
            0.
            ((long_w.(phase) -. short_w.(phase)) /. float_of_int (Stdlib.max 1 extra)))
        [ "ramp-up"; "avoidance" ];
      if cycles then
        Alcotest.(check bool) (name ^ ": re-probes keep cycling") true (exits > 100))
    [
      ("circuitstart", Circuitstart.Controller.Circuit_start, true);
      ("slow start", Circuitstart.Controller.Slow_start, true);
      ("predictive", Circuitstart.Controller.Predictive, false);
    ]

(* [Topology.links] builds its array once, on flash-crowd's 218-node
   hub shape, and every later call returns the kept array.  Fault,
   star and session runs read it once per run or more. *)
let test_alloc_topology_links () =
  let sim = Engine.Sim.create () in
  let rate = Engine.Units.Rate.mbit 10 and delay = Engine.Time.ms 5 in
  let topo, _, _ =
    Netsim.Topology.star sim ~hub:"hub"
      ~leaves:(List.init 217 (fun i -> (Printf.sprintf "l%d" i, rate, delay)))
      ()
  in
  let first = Netsim.Topology.links topo in
  Alcotest.(check int) "every directed link" 434 (Array.length first);
  check_no_alloc "Topology.links, repeated" (fun () ->
      ignore (Netsim.Topology.links topo : Netsim.Link.t array));
  Alcotest.(check bool) "the same array" true (Netsim.Topology.links topo == first)

(* Occupancy accounting on a circuit that already has its entry: the
   hot path of every hop sender, twice per cell. *)
let test_alloc_switchboard () =
  let sim = Engine.Sim.create () in
  let topo, _, leaves =
    Netsim.Topology.star sim ~hub:"hub"
      ~leaves:[ ("a", Engine.Units.Rate.mbit 10, Engine.Time.ms 5) ]
      ()
  in
  let sb = Tor_model.Switchboard.install (Netsim.Network.create topo) (List.hd leaves) in
  let c = Tor_model.Circuit_id.of_int 3 in
  Tor_model.Switchboard.charge sb c 514;
  check_no_alloc "Switchboard.charge" (fun () -> Tor_model.Switchboard.charge sb c 514);
  check_no_alloc "Switchboard.credit" (fun () -> Tor_model.Switchboard.credit sb c 514);
  Alcotest.(check int) "charges and credits balance" 514
    (Tor_model.Switchboard.circuit_queued_bytes sb c)

(* The sink's per-cell accounting: a fresh cell and a duplicate.  The
   commands are built up front, so the loop only delivers. *)
let test_alloc_sink () =
  let cells = 130_000 in
  let cmds =
    Array.init cells (fun seq ->
        Tor_model.Cell.Relay_data
          { stream_id = 0; seq; length = Tor_model.Cell.payload_capacity; last = false })
  in
  (* One cell more than is delivered, so the stream never completes. *)
  let sink =
    Tor_model.Stream.Sink.create
      ~expected_bytes:((cells + 1) * Tor_model.Cell.payload_capacity) ()
  in
  let next = ref 0 and now = Engine.Time.ms 1 in
  check_no_alloc "Sink.deliver of a fresh cell" (fun () ->
      Tor_model.Stream.Sink.deliver sink ~now cmds.(!next);
      incr next);
  Alcotest.(check int) "every cell fresh" !next (Tor_model.Stream.Sink.cells_received sink);
  check_no_alloc "Sink.deliver of a duplicate" (fun () ->
      Tor_model.Stream.Sink.deliver sink ~now cmds.(0));
  Alcotest.(check int) "contiguous prefix" (!next * Tor_model.Cell.payload_capacity)
    (Tor_model.Stream.Sink.delivered_bytes sink)

(* Minor words one [cells]-cell Fixed-window transfer allocates inside
   [Sim.run], over client -> 3 relays -> server on a five-leaf star.
   [start] has already queued every cell, so what is measured is the
   per-cell path from the client's wire to the sink. *)
let transfer_run_words cells =
  let sim = Engine.Sim.create () in
  let rate = Engine.Units.Rate.mbit 10 and delay = Engine.Time.ms 5 in
  let topo, _, leaves =
    Netsim.Topology.star sim ~hub:"hub"
      ~leaves:(List.init 5 (fun i -> (Printf.sprintf "l%d" i, rate, delay)))
      ()
  in
  let net = Netsim.Network.create topo in
  let leaves = Array.of_list leaves in
  let bts =
    Array.map (fun n -> Backtap.Node.install (Tor_model.Switchboard.install net n)) leaves
  in
  let relays =
    List.init 3 (fun i ->
        Tor_model.Relay_info.make ~nickname:(Printf.sprintf "r%d" i) ~node:leaves.(i + 1)
          ~bandwidth:rate ~latency:delay ())
  in
  let circuit =
    Tor_model.Circuit.make ~id:(Tor_model.Circuit_id.of_int 0) ~client:leaves.(0) ~relays
      ~server:leaves.(4)
  in
  let node_of n =
    let rec find i = if Netsim.Node_id.equal leaves.(i) n then bts.(i) else find (i + 1) in
    find 0
  in
  let d =
    Backtap.Transfer.deploy ~node_of ~circuit
      ~bytes:(cells * Tor_model.Cell.payload_capacity)
      ~strategy:(Circuitstart.Controller.Fixed 8) ()
  in
  Backtap.Transfer.start d;
  let before = Gc.minor_words () in
  Engine.Sim.run sim;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "transfer complete" true (Backtap.Transfer.complete d);
  Alcotest.(check int) "no retransmissions" 0 (Backtap.Transfer.total_retransmissions d);
  Alcotest.(check int) "every cell sampled" cells
    (Engine.Stats.Online.count (Backtap.Transfer.cell_latency_stats d));
  words

(* What each cell still allocates between the client's wire and the
   sink, in words on a 64-bit host (a block costs its fields plus one
   header word):
   - per hop (4: client, 3 relays): the data packet (a 6-field
     [Packet.t], 7 words) with its [Bt_cell] payload (an extension
     constructor with 2 fields, 4 words), and the feedback packet (7)
     with its [Bt_feedback] (4): 22 words;
   - per relay (3): the peeled cell, a [Cell.t] (3 words) holding a
     fresh [Relay] command (3 words): 6 words;
   - at the server: the latency sample, 2 words — the boxed float
     handed across the module boundary to [Engine.Stats.Online.add].
     [Online.t] is an all-float record, so [add] itself rewrites its
     fields in place (see the [Online.add] test).
   Latency stamps, acks, occupancy, the sink and the hop senders'
   records add nothing. *)
let cell_budget = (4 * (7 + 4 + 7 + 4)) + (3 * (3 + 3)) + 2

let test_alloc_transfer () =
  ignore (transfer_run_words 100);
  let short = transfer_run_words 1_000 in
  let long = transfer_run_words 3_000 in
  Alcotest.(check (float 0.)) "minor words per cell = the packet budget"
    (float_of_int cell_budget) ((long -. short) /. 2_000.)

(* Minor words per round of the consensus-scale workload.  Every slot
   hosts an elephant that cannot finish ([elephant_cells] = 2^40), and
   the mean think time is 20 ms, so all 2000 slots have arrived well
   inside the shorter 2 s horizon: from then on a step is a round and
   nothing else.  Subtracting the 2 s run from the 6 s run cancels
   set-up, arrivals, teardown and the result, leaving rounds and
   exchange windows.  A round allocates
   nothing: the share and window arithmetic stays in registers, and it
   schedules its next round by writing one int into [s_next].  A window
   allocates nothing either: the sweep and exchange jobs are built once
   per run, and a one-shard [Pool.Team.run] allocates nothing.  So the
   budget is 0; the bound of 0.01 words per round would show even one
   word per window at this size (~10^3 rounds per window). *)
let test_alloc_round () =
  let run seconds =
    Workload.Network_experiment.run_instrumented ~seed:3
      { Workload.Network_experiment.default_config with
        Workload.Network_experiment.relays = 60;
        slots = 2_000;
        duration = Engine.Time.s seconds;
        mean_think = Engine.Time.ms 20;
        elephant_fraction = 1.;
        elephant_cells = 1 lsl 40;
      }
  in
  ignore (run 1);
  let short, short_words = run 2 in
  let long, long_words = run 6 in
  List.iter
    (fun (r : Workload.Network_experiment.result) ->
      Alcotest.(check int) "every slot arrived" 2_000 r.arrivals;
      Alcotest.(check int) "no lifetime completed" 0 r.completed)
    [ short; long ];
  let rounds = long.rounds - short.rounds in
  Alcotest.(check bool) "the longer run took more rounds" true (rounds > 50_000);
  let per_round = (long_words -. short_words) /. float_of_int rounds in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per round < 0.01" per_round)
    true (per_round < 0.01)

(* The consensus engine's window law on its own: a packed state is an
   immediate int, so a step allocates nothing for any strategy. *)
let test_alloc_round_law () =
  let module L = Circuitstart.Controller.Round_law in
  List.iter
    (fun strategy ->
      let st = ref (L.initial strategy) and bdp = ref 1 in
      check_no_alloc
        ("Round_law.step " ^ Workload.Experiment.label strategy)
        (fun () ->
          bdp := ((!bdp * 7) + 3) land 127 + 1;
          st := L.step strategy ~phase:(L.phase !st) ~cwnd:(L.cwnd !st) ~bdp:!bdp))
    Circuitstart.Controller.[ Circuit_start; Slow_start; Predictive; Fixed 8 ]

(* Minor words per lifetime of the same world with circuits that
   finish: every slot cycles through think, arrival, rounds and
   completion.  Subtracting a 4,000-lifetime run from a 24,000-lifetime
   one cancels set-up, teardown and the result.  A completion records
   its TTLB with [Sketch.add_ns], and [think] draws the next gap with
   [Rng.exponential_ns] from the stored mean, so no float is boxed and
   a whole lifetime allocates nothing; the bound of 0.01 would show one
   word in every hundred lifetimes. *)
let test_alloc_lifetime () =
  let run target_lifetimes =
    Workload.Network_experiment.run_instrumented ~seed:3
      { Workload.Network_experiment.default_config with
        Workload.Network_experiment.relays = 60;
        slots = 2_000;
        target_lifetimes;
        mean_think = Engine.Time.ms 20;
      }
  in
  ignore (run 2_000);
  let short, short_words = run 4_000 in
  let long, long_words = run 24_000 in
  let lifetimes = long.completed - short.completed in
  Alcotest.(check bool) "the longer run completed more lifetimes" true (lifetimes > 19_000);
  let per_lifetime = (long_words -. short_words) /. float_of_int lifetimes in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per lifetime < 0.01" per_lifetime)
    true (per_lifetime < 0.01)

(* Set-up's allocation per slot.  With the horizon cut to its first
   nanosecond a run is set-up, one window in which no slot is due, and
   teardown.  Every array indexed by slot, the buffer of slot streams
   among them, is longer than 256 words at both sizes, so it is
   allocated straight on the major heap, where [Gc.minor_words] does
   not count it.  What set-up allocates besides (the relay draw, the
   draw tables, the sketches) does not depend on the slot count, and
   drawing each slot's first think time allocates nothing, so doubling
   the slots must leave the minor words exactly as they were: 0 words
   per slot. *)
let test_alloc_setup_per_slot () =
  let run slots =
    snd
      (Workload.Network_experiment.run_instrumented ~seed:3
         { Workload.Network_experiment.default_config with
           Workload.Network_experiment.relays = 60;
           slots;
           duration = Engine.Time.ns 1;
         })
  in
  ignore (run 1_000);
  let small = run 1_000 in
  let large = run 2_000 in
  Alcotest.(check (float 0.)) "minor words at 2,000 slots = at 1,000" small large

(* ------------------------------------------------------------------ *)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_time_order; prop_time_add_sub; prop_time_ns64_roundtrip;
      prop_time_compare_int64; prop_transmission_additive;
      prop_rng_int_unbiased; prop_rng_matches_reference;
      prop_weighted_matches_binary_search; prop_streams_match_splits;
      prop_exponential_ns_matches_of_sec_f;
      prop_queue_sorted_drain; prop_queue_matches_model; prop_queue_timers_match_model;
      prop_online_matches_direct ]

let () =
  Alcotest.run "engine"
    [
      ( "time",
        [
          Alcotest.test_case "constructors" `Quick test_time_constructors;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "saturation" `Quick test_time_saturation;
          Alcotest.test_case "range edges" `Quick test_time_range_edges;
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
          Alcotest.test_case "negative pretty printing" `Quick test_negative_time_pp;
          Alcotest.test_case "invalid inputs" `Quick test_time_invalid;
        ] );
      ( "units",
        [
          Alcotest.test_case "rate constructors" `Quick test_rate_constructors;
          Alcotest.test_case "transmission time" `Quick test_transmission_time;
          Alcotest.test_case "sizes" `Quick test_sizes;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "moments" `Slow test_rng_moments;
          Alcotest.test_case "lognormal median" `Slow test_rng_lognormal_median;
          Alcotest.test_case "weighted pick" `Slow test_rng_pick_weighted;
          Alcotest.test_case "weighted draw edges" `Quick test_rng_weighted_edges;
          Alcotest.test_case "weighted create errors" `Quick test_rng_weighted_errors;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_ordering;
          Alcotest.test_case "stability" `Quick test_queue_stability;
          Alcotest.test_case "cancel" `Quick test_queue_cancel;
          Alcotest.test_case "cancel after fire" `Quick test_queue_cancel_after_fire;
          Alcotest.test_case "peek and clear" `Quick test_queue_peek_clear;
          Alcotest.test_case "clear resets state" `Quick test_queue_clear_resets;
          Alcotest.test_case "slots released to the GC" `Quick
            test_queue_slots_released;
          Alcotest.test_case "pop_before" `Quick test_queue_pop_before;
          Alcotest.test_case "pop_before skips cancelled" `Quick
            test_queue_pop_before_skips_cancelled;
          Alcotest.test_case "sequence overflow guarded" `Quick
            test_queue_seq_overflow_guarded;
          Alcotest.test_case "live bookkeeping" `Quick test_queue_live_bookkeeping;
          Alcotest.test_case "wheel and heap horizons" `Quick
            test_queue_wheel_horizons;
          Alcotest.test_case "never fires last" `Quick test_queue_never_last;
          Alcotest.test_case "sparse program" `Quick test_queue_sparse_program;
        ] );
      ( "sim",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "rejects past" `Quick test_sim_schedule_past_rejected;
          Alcotest.test_case "until" `Quick test_sim_until;
          Alcotest.test_case "until inclusive" `Quick test_sim_until_inclusive;
          Alcotest.test_case "stop" `Quick test_sim_stop;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "schedule_now ordering" `Quick
            test_sim_schedule_now_ordering;
          Alcotest.test_case "every" `Quick test_sim_every;
          Alcotest.test_case "every invalid period" `Quick test_every_invalid_period;
          Alcotest.test_case "every stop mid-period" `Quick
            test_sim_every_stop_mid_period;
          Alcotest.test_case "until on empty queue" `Quick test_sim_until_empty_queue;
          Alcotest.test_case "max events" `Quick test_sim_max_events;
          Alcotest.test_case "timer lifecycle" `Quick test_timer_lifecycle;
          Alcotest.test_case "timer rejects past" `Quick test_timer_past_rejected;
          Alcotest.test_case "timer rearm ordering" `Quick
            test_timer_rearm_seq_ordering;
        ] );
      ( "stats",
        [
          Alcotest.test_case "online known values" `Quick test_online_known;
          Alcotest.test_case "online merge" `Quick test_online_merge;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "samples basic" `Quick test_samples_basic;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "basic" `Quick test_timeseries_basic;
          Alcotest.test_case "rejects backwards" `Quick
            test_timeseries_backwards_rejected;
          Alcotest.test_case "resample" `Quick test_timeseries_resample;
          Alcotest.test_case "trace registry" `Quick test_trace_registry;
          Alcotest.test_case "trace events" `Quick test_trace_events;
          Alcotest.test_case "trace events csv round trip" `Quick
            test_trace_events_csv_roundtrip;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "Rng.int" `Quick test_alloc_rng;
          Alcotest.test_case "Rng.Weighted.draw and Rng.bernoulli" `Quick
            test_alloc_weighted;
          Alcotest.test_case "Rng.exponential_ns and Sketch.add_ns" `Quick
            test_alloc_exponential_ns;
          Alcotest.test_case "Faults.decide" `Quick test_alloc_faults_decide;
          Alcotest.test_case "Time.add" `Quick test_alloc_time;
          Alcotest.test_case "Online.add" `Quick test_alloc_online;
          Alcotest.test_case "Sketch.add" `Quick test_alloc_sketch;
          Alcotest.test_case "Rate.transmission_time" `Quick
            test_alloc_transmission_time;
          Alcotest.test_case "self-rearming Sim.Timer" `Quick test_alloc_timer;
          Alcotest.test_case "timers at L0, L1 and overflow horizons" `Quick
            test_alloc_timer_horizons;
          Alcotest.test_case "dropped timers are collected" `Quick
            test_queue_timers_released;
          Alcotest.test_case "cancelled one-shot released at once" `Quick
            test_queue_cancel_released;
          Alcotest.test_case "leaf->hub->leaf forwarding" `Quick test_alloc_forwarding;
          Alcotest.test_case "Network.create on a 218-node star" `Quick
            test_alloc_network_create;
          Alcotest.test_case "Network.create on a 4001-node star, retained" `Quick
            test_retained_network_create;
          Alcotest.test_case "Controller.on_feedback" `Quick test_alloc_feedback;
          Alcotest.test_case "Topology.links, repeated" `Quick
            test_alloc_topology_links;
          Alcotest.test_case "Switchboard.charge and credit" `Quick test_alloc_switchboard;
          Alcotest.test_case "Sink.deliver" `Quick test_alloc_sink;
          Alcotest.test_case "Fixed-window transfer per cell" `Quick test_alloc_transfer;
          Alcotest.test_case "Round_law.step" `Quick test_alloc_round_law;
          Alcotest.test_case "consensus round step" `Quick test_alloc_round;
          Alcotest.test_case "consensus lifetime" `Quick test_alloc_lifetime;
          Alcotest.test_case "consensus set-up per slot" `Quick
            test_alloc_setup_per_slot;
        ] );
      ("properties", qtests);
    ]
