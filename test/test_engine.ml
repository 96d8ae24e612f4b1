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
  Alcotest.check time "sub" (Engine.Time.ms 2) (Engine.Time.sub a b);
  Alcotest.check time "diff" (Engine.Time.ms 2) (Engine.Time.diff a b);
  Alcotest.check time "mul_int" (Engine.Time.ms 15) (Engine.Time.mul_int a 3);
  Alcotest.check time "div_int" (Engine.Time.ms 1) (Engine.Time.div_int b 3);
  Alcotest.check time "scale" (Engine.Time.ms 10) (Engine.Time.scale a 2.);
  Alcotest.(check (float 1e-9)) "ratio" (5. /. 3.) (Engine.Time.ratio a b);
  Alcotest.(check bool) "negative" true
    (Engine.Time.is_negative (Engine.Time.sub b a))

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
  Alcotest.check time "of_ms_f beyond range saturates" huge (Engine.Time.of_ms_f 1e15);
  Alcotest.check time "scale beyond range saturates" huge
    (Engine.Time.scale (Engine.Time.s 1_000_000_000) 10.);
  Alcotest.check time "scale below range saturates" lowest
    (Engine.Time.scale (Engine.Time.s 1_000_000_000) (-10.));
  Alcotest.check time "scale of never by 1 stays never" huge
    (Engine.Time.scale huge 1.)

let test_time_conversions () =
  Alcotest.(check (float 1e-12)) "to_sec_f" 0.002 (Engine.Time.to_sec_f (Engine.Time.ms 2));
  Alcotest.(check (float 1e-9)) "to_ms_f" 2. (Engine.Time.to_ms_f (Engine.Time.ms 2));
  Alcotest.(check (float 1e-6)) "to_us_f" 2000. (Engine.Time.to_us_f (Engine.Time.ms 2))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Engine.Time.to_string (Engine.Time.ns 500));
  Alcotest.(check string) "us" "1.5us" (Engine.Time.to_string (Engine.Time.ns 1_500));
  Alcotest.(check string) "ms" "2.50ms" (Engine.Time.to_string (Engine.Time.us 2_500));
  Alcotest.(check string) "s" "3.000s" (Engine.Time.to_string (Engine.Time.s 3))

let test_time_invalid () =
  Alcotest.check_raises "non-finite" (Invalid_argument "Time: non-finite duration")
    (fun () -> ignore (Engine.Time.of_sec_f Float.nan));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Engine.Time.div_int (Engine.Time.s 1) 0))

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
      Engine.Time.equal (Engine.Time.sub (Engine.Time.add ta tb) tb) ta)

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
  Alcotest.(check int) "kbit" 2_000 (Engine.Units.Rate.to_bps (Engine.Units.Rate.kbit 2));
  Alcotest.(check int) "mbit" 3_000_000
    (Engine.Units.Rate.to_bps (Engine.Units.Rate.mbit 3));
  Alcotest.(check int) "mbit_f" 1_500_000
    (Engine.Units.Rate.to_bps (Engine.Units.Rate.mbit_f 1.5));
  Alcotest.check_raises "zero rate" (Invalid_argument "Rate.bps: rate must be positive")
    (fun () -> ignore (Engine.Units.Rate.bps 0))

let test_transmission_time () =
  Alcotest.check time "exact"
    (Engine.Time.s 1)
    (Engine.Units.Rate.transmission_time (Engine.Units.Rate.kbit 8) 1000);
  Alcotest.check time "ceil"
    (Engine.Time.of_ns64 2_666_666_667L)
    (Engine.Units.Rate.transmission_time (Engine.Units.Rate.bps 3) 1);
  Alcotest.check time "zero bytes" Engine.Time.zero
    (Engine.Units.Rate.transmission_time (Engine.Units.Rate.mbit 1) 0)

let test_bdp () =
  Alcotest.(check int) "bdp" 100_000
    (Engine.Units.Rate.bdp_bytes (Engine.Units.Rate.mbit 8) (Engine.Time.ms 100))

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
    let y = Engine.Rng.int_in rng (-3) 3 in
    Alcotest.(check bool) "int_in [-3,3]" true (y >= -3 && y <= 3);
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
    (Float.abs (Engine.Stats.Online.mean acc -. 2.) < 0.1);
  let acc = Engine.Stats.Online.create () in
  for _ = 1 to n do
    Engine.Stats.Online.add acc (Engine.Rng.normal rng ~mu:5. ~sigma:1.)
  done;
  Alcotest.(check bool) "normal mean ~5" true
    (Float.abs (Engine.Stats.Online.mean acc -. 5.) < 0.05);
  Alcotest.(check bool) "normal sd ~1" true
    (Float.abs (Engine.Stats.Online.stddev acc -. 1.) < 0.05)

let test_rng_lognormal_median () =
  let rng = Engine.Rng.create 6 in
  let n = 20_001 in
  let xs =
    Array.init n (fun _ -> Engine.Rng.lognormal rng ~mu:(Float.log 10.) ~sigma:0.75)
  in
  let med = Engine.Stats.median xs in
  Alcotest.(check bool)
    (Printf.sprintf "lognormal median ~10 (got %.2f)" med)
    true
    (med > 9. && med < 11.)

let test_rng_shuffle_permutation () =
  let rng = Engine.Rng.create 7 in
  let arr = Array.init 50 (fun i -> i) in
  Engine.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

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

let test_rng_sample_without_replacement () =
  let rng = Engine.Rng.create 9 in
  let arr = Array.init 20 (fun i -> i) in
  let s = Engine.Rng.sample_without_replacement rng 8 arr in
  Alcotest.(check int) "size" 8 (Array.length s);
  let distinct = List.sort_uniq Int.compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 8 (List.length distinct)

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
  let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0
end

type rng_op = Bits | Int of int | Float of float | Bool | Split | Copy

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
        pure Bool; pure Split; pure Copy ])

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
          | Bool -> R.bool !t = Ref_rng.bool !m
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
  Alcotest.(check bool) "empty" true (Engine.Event_queue.is_empty q)

let test_queue_clear_resets () =
  let q = Engine.Event_queue.create () in
  let h = Engine.Event_queue.add q ~time:(Engine.Time.ms 1) "old" in
  ignore (Engine.Event_queue.add q ~time:(Engine.Time.ms 2) "older");
  Engine.Event_queue.clear q;
  Alcotest.(check int) "size" 0 (Engine.Event_queue.size q);
  Alcotest.(check bool) "empty" true (Engine.Event_queue.is_empty q);
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
  (* Popped and cleared entries must not pin their payloads: the heap
     array overwrites vacated slots with a dummy, so the only remaining
     reference is the caller's. *)
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
  Alcotest.(check string) "sweep discards cancelled head" "live"
    (Engine.Event_queue.pop_before q ~limit:(Engine.Time.ms 3) ~none);
  Alcotest.(check bool) "then empty" true (Engine.Event_queue.is_empty q)

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
  Alcotest.(check bool) "is_empty agrees" true (Engine.Event_queue.is_empty q)

let test_queue_wheel_horizons () =
  (* Deadlines on both sides of the wheel window (~16.8ms): short ones
     live in wheel slots, long ones in the overflow heap and must
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
  Alcotest.(check bool) "empty at the end" true (Engine.Event_queue.is_empty q)

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
  Alcotest.(check bool) "empty at the end" true (Engine.Event_queue.is_empty q)

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
     list model ordered by (time, insertion sequence).  Times span the
     wheel window, so programs exercise slot insertion, the overflow
     heap, migration, and the lazy-deletion sweep together. *)
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
  Alcotest.(check (float 1e-9)) "variance" (32. /. 7.) (Engine.Stats.Online.variance acc);
  Alcotest.(check (float 1e-9)) "min" 2. (Engine.Stats.Online.min acc);
  Alcotest.(check (float 1e-9)) "max" 9. (Engine.Stats.Online.max acc);
  Alcotest.(check (float 1e-9)) "sum" 40. (Engine.Stats.Online.sum acc)

let test_online_merge () =
  let a = Engine.Stats.Online.create () and b = Engine.Stats.Online.create () in
  let all = Engine.Stats.Online.create () in
  List.iter
    (fun x ->
      Engine.Stats.Online.add all x;
      if x < 5. then Engine.Stats.Online.add a x else Engine.Stats.Online.add b x)
    [ 1.; 2.; 3.; 6.; 7.; 8.; 9. ];
  let merged = Engine.Stats.Online.merge a b in
  Alcotest.(check (float 1e-9)) "merged mean" (Engine.Stats.Online.mean all)
    (Engine.Stats.Online.mean merged);
  Alcotest.(check (float 1e-9)) "merged var" (Engine.Stats.Online.variance all)
    (Engine.Stats.Online.variance merged)

let test_percentiles () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  Alcotest.(check (float 1e-9)) "median" 35. (Engine.Stats.median xs);
  Alcotest.(check (float 1e-9)) "p0" 15. (Engine.Stats.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Engine.Stats.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 20. (Engine.Stats.percentile xs 25.)

let test_cdf_points () =
  let pts = Engine.Stats.cdf_points [| 3.; 1.; 3.; 2. |] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "steps"
    [ (1., 0.25); (2., 0.5); (3., 1.) ]
    pts

let test_samples_basic () =
  let s = Engine.Stats.Samples.create () in
  Alcotest.(check bool) "empty" true (Engine.Stats.Samples.is_empty s);
  List.iter (Engine.Stats.Samples.add s) [ 30.; 10.; 50. ];
  Alcotest.(check int) "length" 3 (Engine.Stats.Samples.length s);
  Alcotest.(check (float 1e-9)) "median" 30. (Engine.Stats.Samples.median s);
  Alcotest.(check (float 1e-9)) "p0" 10. (Engine.Stats.Samples.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Engine.Stats.Samples.percentile s 100.);
  Alcotest.(check (float 1e-9)) "mean" 30. (Engine.Stats.Samples.mean s);
  Alcotest.(check (float 1e-9)) "min" 10. (Engine.Stats.Samples.min s);
  Alcotest.(check (float 1e-9)) "max" 50. (Engine.Stats.Samples.max s);
  Alcotest.(check (array (float 1e-9))) "sorted view" [| 10.; 30.; 50. |]
    (Engine.Stats.Samples.sorted s);
  Alcotest.(check (array (float 1e-9))) "to_array keeps insertion order"
    [| 30.; 10.; 50. |] (Engine.Stats.Samples.to_array s)

let test_samples_cache_invalidation () =
  (* Query (populating the sorted cache), then add: the next query must
     see the new sample, not the stale cache. *)
  let s = Engine.Stats.Samples.of_array [| 30.; 10.; 50. |] in
  Alcotest.(check (float 1e-9)) "median before" 30. (Engine.Stats.Samples.median s);
  Engine.Stats.Samples.add s 20.;
  Alcotest.(check (float 1e-9)) "median after add" 25. (Engine.Stats.Samples.median s);
  Engine.Stats.Samples.add_all s [| 5.; 60. |];
  Alcotest.(check (float 1e-9)) "p0 after add_all" 5.
    (Engine.Stats.Samples.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100 after add_all" 60.
    (Engine.Stats.Samples.percentile s 100.);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "cdf points see every sample"
    (Engine.Stats.cdf_points [| 30.; 10.; 50.; 20.; 5.; 60. |])
    (Engine.Stats.Samples.cdf_points s)

let prop_samples_match_array =
  QCheck2.Test.make ~name:"Samples.percentile matches array percentile"
    QCheck2.Gen.(
      pair (list_size (int_range 1 50) (float_range 0. 100.)) (int_range 0 100))
    (fun (xs, p) ->
      let s = Engine.Stats.Samples.of_array (Array.of_list xs) in
      Float.abs
        (Engine.Stats.Samples.percentile s (float_of_int p)
        -. Engine.Stats.percentile (Array.of_list xs) (float_of_int p))
      < 1e-9)

let prop_online_matches_direct =
  QCheck2.Test.make ~name:"Welford matches direct mean"
    QCheck2.Gen.(list_size (int_range 1 100) (float_range (-1000.) 1000.))
    (fun xs ->
      let acc = Engine.Stats.Online.create () in
      List.iter (Engine.Stats.Online.add acc) xs;
      let direct = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Engine.Stats.Online.mean acc -. direct) < 1e-6)

let prop_cdf_monotone =
  QCheck2.Test.make ~name:"cdf points are monotone and end at 1"
    QCheck2.Gen.(list_size (int_range 1 100) (float_range 0. 100.))
    (fun xs ->
      let pts = Engine.Stats.cdf_points (Array.of_list xs) in
      let fracs = List.map snd pts in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone fracs && Float.equal (List.nth fracs (List.length fracs - 1)) 1.)

(* ------------------------------------------------------------------ *)
(* Timeseries / Trace *)

let test_timeseries_basic () =
  let ts = Engine.Timeseries.create ~name:"t" () in
  Engine.Timeseries.record ts (Engine.Time.ms 1) 1.;
  Engine.Timeseries.record ts (Engine.Time.ms 3) 3.;
  Alcotest.(check int) "length" 2 (Engine.Timeseries.length ts);
  Alcotest.(check (option (float 1e-9))) "value_at before" None
    (Engine.Timeseries.value_at ts Engine.Time.zero);
  Alcotest.(check (option (float 1e-9))) "value_at step" (Some 1.)
    (Engine.Timeseries.value_at ts (Engine.Time.ms 2));
  Alcotest.(check (option (float 1e-9))) "value_at exact" (Some 3.)
    (Engine.Timeseries.value_at ts (Engine.Time.ms 3));
  Alcotest.(check (option (float 1e-9))) "max" (Some 3.)
    (Engine.Timeseries.max_value ts);
  Alcotest.(check (option time)) "time of max" (Some (Engine.Time.ms 3))
    (Engine.Timeseries.time_of_max ts)

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
  Alcotest.(check (float 1e-9)) "after second" 20. (snd samples.(2))

let test_rng_pareto_scale () =
  let rng = Engine.Rng.create 10 in
  (* Pareto samples are never below the scale parameter. *)
  for _ = 1 to 1000 do
    Alcotest.(check bool) "above scale" true
      (Engine.Rng.pareto rng ~shape:2. ~scale:3. >= 3.)
  done

let test_every_invalid_period () =
  let sim = Engine.Sim.create () in
  Alcotest.check_raises "zero period" (Invalid_argument "Sim.every: period must be positive")
    (fun () -> Engine.Sim.every sim Engine.Time.zero (fun () -> ()) ~stop:(fun () -> true))

let test_negative_time_pp () =
  Alcotest.(check string) "sign rendered" "-2.50ms"
    (Engine.Time.to_string (Engine.Time.sub Engine.Time.zero (Engine.Time.us 2_500)))

let test_trace_registry () =
  let tr = Engine.Trace.create () in
  Engine.Trace.record tr "a/x" (Engine.Time.ms 1) 1.;
  Engine.Trace.record tr "b/y" (Engine.Time.ms 2) 2.;
  Engine.Trace.record tr "a/x" (Engine.Time.ms 3) 3.;
  Alcotest.(check (list string)) "keys sorted" [ "a/x"; "b/y" ] (Engine.Trace.keys tr);
  Alcotest.(check int) "series length" 2
    (Engine.Timeseries.length (Engine.Trace.series tr "a/x"));
  Alcotest.(check bool) "find missing" true (Engine.Trace.find tr "zzz" = None);
  let buf = Buffer.create 64 in
  Engine.Trace.to_csv tr buf;
  let csv = Buffer.contents buf in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 0 && String.sub csv 0 19 = "series,time_s,value")

let test_trace_events () =
  let tr = Engine.Trace.create () in
  Alcotest.(check int) "empty" 0 (Engine.Trace.event_count tr);
  Engine.Trace.record_event tr Engine.Trace.Fault ~subject:"link/a" ~detail:"down"
    (Engine.Time.ms 10);
  Engine.Trace.record_event tr Engine.Trace.Recovery ~subject:"link/a" ~detail:"up"
    (Engine.Time.ms 30);
  Engine.Trace.record_event tr Engine.Trace.Abort ~subject:"xfer" (Engine.Time.ms 20);
  let evs = Engine.Trace.events tr in
  Alcotest.(check int) "count" 3 (Engine.Trace.event_count tr);
  Alcotest.(check (list string)) "insertion order preserved"
    [ "link/a"; "link/a"; "xfer" ]
    (List.map (fun e -> e.Engine.Trace.subject) evs);
  Alcotest.(check int) "filter by kind" 1
    (List.length (Engine.Trace.events_with tr Engine.Trace.Fault));
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
      Engine.Trace.Rebuild; Engine.Trace.Resume; Engine.Trace.Exhausted ]
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
  List.iter
    (fun kind ->
      let s = Engine.Trace.kind_to_string kind in
      Alcotest.(check bool) ("kind round trip: " ^ s) true
        (Engine.Trace.kind_of_string s = Some kind))
    kinds;
  Alcotest.(check bool) "unknown kind rejected" true
    (Engine.Trace.kind_of_string "bogus" = None);
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
        let shape = Engine.Rng.float_in r 0.5 1.5 in
        Array.init n (fun _ -> Engine.Rng.pareto r ~shape ~scale:1.)
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
      Int64.equal (Int64.bits_of_float (W.total w)) (Int64.bits_of_float total)
      && draws_agree && edges_agree)

let test_rng_weighted_edges () =
  let module W = Engine.Rng.Weighted in
  (* A uniform at the total (the largest one below 1 never rounds up
     to it, but [find] keeps the binary search's fallback) gives the
     last index, even when its weight is zero. *)
  let weights = [| 0.; 0.; 1.; 1. -. epsilon_float; 0. |] in
  let w = W.create weights in
  let total = W.total w in
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
      sink := !sink lxor Engine.Rng.int rng (max_int - 7));
  check_no_alloc "Rng.bool" (fun () ->
      if Engine.Rng.bool rng then incr sink)

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

(* Route set-up on the flash crowd's hub: a star of 217 leaves, so
   n = 218 nodes.  The forwarding table is n rows of n links, about
   n^2 words; everything else [Network.create] allocates (the
   Dijkstra scratch, one reused row of neighbour links, the receiver
   closures) is linear in n and the link count, hence the 1.2 n^2
   bound.  Building next-hop and per-node neighbour tables first would
   cost about 3 n^2. *)
let test_alloc_network_create () =
  let sim = Engine.Sim.create () in
  let rate = Engine.Units.Rate.mbit 10 and delay = Engine.Time.ms 5 in
  let topo, _, _ =
    Netsim.Topology.star sim ~hub:"hub"
      ~leaves:(List.init 217 (fun i -> (Printf.sprintf "l%d" i, rate, delay)))
      ()
  in
  let n = Netsim.Topology.node_count topo in
  Alcotest.(check int) "nodes" 218 n;
  let before = Gc.minor_words () in
  ignore (Netsim.Network.create topo : Netsim.Network.t);
  let words = Gc.minor_words () -. before in
  let bound = 1.2 *. float_of_int (n * n) in
  Alcotest.(check bool)
    (Printf.sprintf "Network.create: %.0f minor words < 1.2 n^2 = %.0f" words bound)
    true (words < bound)

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

(* ------------------------------------------------------------------ *)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_time_order; prop_time_add_sub; prop_time_ns64_roundtrip;
      prop_time_compare_int64; prop_transmission_additive;
      prop_rng_int_unbiased; prop_rng_matches_reference;
      prop_weighted_matches_binary_search; prop_exponential_ns_matches_of_sec_f;
      prop_queue_sorted_drain; prop_queue_matches_model;
      prop_online_matches_direct; prop_cdf_monotone; prop_samples_match_array ]

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
          Alcotest.test_case "bdp" `Quick test_bdp;
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
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "weighted pick" `Slow test_rng_pick_weighted;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "pareto scale bound" `Quick test_rng_pareto_scale;
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
          Alcotest.test_case "cdf points" `Quick test_cdf_points;
          Alcotest.test_case "samples basic" `Quick test_samples_basic;
          Alcotest.test_case "samples cache invalidation" `Quick
            test_samples_cache_invalidation;
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
          Alcotest.test_case "Rng.int and Rng.bool" `Quick test_alloc_rng;
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
          Alcotest.test_case "leaf->hub->leaf forwarding" `Quick test_alloc_forwarding;
          Alcotest.test_case "Network.create on a 218-node star" `Quick
            test_alloc_network_create;
          Alcotest.test_case "Controller.on_feedback" `Quick test_alloc_feedback;
          Alcotest.test_case "Topology.links, repeated" `Quick
            test_alloc_topology_links;
          Alcotest.test_case "Switchboard.charge and credit" `Quick test_alloc_switchboard;
          Alcotest.test_case "Sink.deliver" `Quick test_alloc_sink;
          Alcotest.test_case "Fixed-window transfer per cell" `Quick test_alloc_transfer;
          Alcotest.test_case "consensus round step" `Quick test_alloc_round;
          Alcotest.test_case "consensus lifetime" `Quick test_alloc_lifetime;
        ] );
      ("properties", qtests);
    ]
