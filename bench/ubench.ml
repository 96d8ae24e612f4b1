(* Scheduler microbenchmarks: timer-wheel engine vs the pre-PR binary
   heap, head to head on the event patterns that dominate real runs.

   Three synthetic loads, each implemented twice with an identical
   event sequence:

     timer-churn       pure arm/fire/rearm of per-connection timeout
                       clocks — the retransmission-watchdog pattern,
                       where almost every armed clock is rescheduled.
     cell-storm        star-topology cell forwarding: per cell a
                       tx-done clock, a propagation one-shot and a
                       feedback watchdog that is armed at send and
                       cancelled at delivery.
     retransmit-heavy  cell-storm under deterministic loss, so the
                       watchdogs actually fire, back off and drive
                       retransmissions.

   The baseline side is a frozen copy of the heap-only [Event_queue]
   and [Sim.run] this PR replaced (peek-then-pop loop, a fresh closure
   + entry + handle per scheduled occurrence, lazy cancellation).  The
   wheel side runs the live [Engine.Sim] with preallocated
   [Sim.Timer]s rearmed in place, as the real hot callers now do.

   Reported per (target, side): events/sec and GC minor words per
   executed event.  Written to BENCH_pr4.json, alongside the speedup
   ratios the acceptance bar cares about.

     bench/ubench.exe [--smoke] [--json F]

   --smoke shrinks every load for CI; --json overrides the report path
   (default BENCH_pr4.json). *)

module Time = Engine.Time

(* ------------------------------------------------------------------ *)
(* The pre-PR scheduler, frozen.  A verbatim copy (modulo module
   paths) of lib/engine/event_queue.ml and the Sim.run loop at the
   commit before the timer wheel landed — the honest baseline for the
   A/B, since the live engine can no longer be built heap-only. *)

module Baseline = struct
  module Eq = struct
    type 'a entry = {
      time : Time.t;
      seq : int;
      payload : 'a;
      mutable cancelled : bool;
      mutable fired : bool;
    }

    type handle = H : 'a entry -> handle

    type 'a t = {
      mutable heap : 'a entry array;
      mutable len : int;
      mutable next_seq : int;
      mutable live : int;
      dummy : 'a entry;
    }

    let make_dummy () : 'a entry =
      { time = Time.zero; seq = min_int; payload = Obj.magic (); cancelled = true;
        fired = true }

    let create ?(capacity = 256) () =
      let dummy = make_dummy () in
      { heap = Array.make capacity dummy; len = 0; next_seq = 0; live = 0; dummy }

    (* Times compare as raw nanoseconds, as the original did; with
       [Time.t] an immediate int that is an int compare, so the
       baseline pays no int64 conversion the original did not. *)
    let entry_before a b =
      let c = Time.compare a.time b.time in
      if c <> 0 then c < 0 else a.seq < b.seq

    let grow q =
      let cap = Array.length q.heap in
      if q.len = cap then begin
        let nheap = Array.make (cap * 2) q.dummy in
        Array.blit q.heap 0 nheap 0 q.len;
        q.heap <- nheap
      end

    let rec sift_up q i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if entry_before q.heap.(i) q.heap.(parent) then begin
          let tmp = q.heap.(i) in
          q.heap.(i) <- q.heap.(parent);
          q.heap.(parent) <- tmp;
          sift_up q parent
        end
      end

    let rec sift_down q i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < q.len && entry_before q.heap.(l) q.heap.(!smallest) then smallest := l;
      if r < q.len && entry_before q.heap.(r) q.heap.(!smallest) then smallest := r;
      if !smallest <> i then begin
        let tmp = q.heap.(i) in
        q.heap.(i) <- q.heap.(!smallest);
        q.heap.(!smallest) <- tmp;
        sift_down q !smallest
      end

    let add q ~time payload =
      let entry =
        { time; seq = q.next_seq; payload; cancelled = false; fired = false }
      in
      q.next_seq <- q.next_seq + 1;
      grow q;
      q.heap.(q.len) <- entry;
      q.len <- q.len + 1;
      q.live <- q.live + 1;
      sift_up q (q.len - 1);
      H entry

    let cancel q (H entry) =
      if not entry.cancelled && not entry.fired then begin
        entry.cancelled <- true;
        q.live <- q.live - 1
      end

    let remove_top q =
      let top = q.heap.(0) in
      q.len <- q.len - 1;
      if q.len > 0 then begin
        q.heap.(0) <- q.heap.(q.len);
        q.heap.(q.len) <- q.dummy;
        sift_down q 0
      end
      else q.heap.(0) <- q.dummy;
      top

    let rec pop q =
      if q.len = 0 then None
      else
        let top = remove_top q in
        if top.cancelled then pop q
        else begin
          q.live <- q.live - 1;
          top.fired <- true;
          Some (top.time, top.payload)
        end

    let rec peek_time q =
      if q.len = 0 then None
      else
        let top = q.heap.(0) in
        if top.cancelled then begin
          ignore (remove_top q);
          peek_time q
        end
        else Some top.time

    let is_empty q = q.live = 0
  end

  module Sim = struct
    type t = {
      queue : (unit -> unit) Eq.t;
      mutable clock : Time.t;
      mutable executed : int;
    }

    let create () = { queue = Eq.create (); clock = Time.zero; executed = 0 }

    let schedule_after t delay f =
      Eq.add t.queue ~time:(Time.add t.clock delay) f

    let cancel t h = Eq.cancel t.queue h

    (* The old peek-then-pop drain loop, with its double traversal of
       the heap top per event. *)
    let run ?until t =
      let rec loop () =
        match Eq.peek_time t.queue with
        | None -> ()
        | Some time -> (
            match until with
            | Some limit when Time.(time > limit) -> t.clock <- limit
            | _ -> (
                match Eq.pop t.queue with
                | None -> ()
                | Some (time, f) ->
                    t.clock <- time;
                    t.executed <- t.executed + 1;
                    f ();
                    loop ()))
      in
      loop ();
      match until with
      | Some limit when Time.(t.clock < limit) && Eq.is_empty t.queue ->
          t.clock <- limit
      | _ -> ()
  end
end

(* ------------------------------------------------------------------ *)
(* Workloads.  Each comes as a [baseline] and a [wheel] runner that
   execute the same logical event sequence; both return the number of
   events the scheduler executed so the two sides can be checked
   against each other. *)

(* timer-churn: [n] connections each run a timeout clock for [rounds]
   fires.  On every fire the clock rearms at a varying delay; every
   third round the fresh arm is immediately superseded (feedback beat
   the watchdog), which on the heap means cancel + reschedule and on
   the wheel an in-place rearm. *)

let churn_delay i r = Time.ns ((((i * 7919) + (r * 104_729)) mod 2_000_000) + 1_000)

let timer_churn_baseline ~n ~rounds () =
  let sim = Baseline.Sim.create () in
  let handles = Array.make n None in
  let round = Array.make n 0 in
  let rec fire i () =
    let r = round.(i) + 1 in
    round.(i) <- r;
    if r < rounds then begin
      let h = Baseline.Sim.schedule_after sim (churn_delay i r) (fire i) in
      if r mod 3 = 0 then begin
        (* Superseded: cancel the entry we just paid for and pay for
           another — the old hot callers' rearm idiom. *)
        Baseline.Sim.cancel sim h;
        handles.(i) <- Some (Baseline.Sim.schedule_after sim (churn_delay i r) (fire i))
      end
      else handles.(i) <- Some h
    end
  in
  for i = 0 to n - 1 do
    handles.(i) <- Some (Baseline.Sim.schedule_after sim (churn_delay i 0) (fire i))
  done;
  Baseline.Sim.run sim;
  sim.executed

let timer_churn_wheel ~n ~rounds () =
  let sim = Engine.Sim.create () in
  let timers = Array.make n None in
  let round = Array.make n 0 in
  let timer_of i = match timers.(i) with Some tm -> tm | None -> assert false in
  let fire i () =
    let r = round.(i) + 1 in
    round.(i) <- r;
    if r < rounds then begin
      let tm = timer_of i in
      Engine.Sim.Timer.arm_after sim tm (churn_delay i r);
      if r mod 3 = 0 then
        (* Superseded: the same clock just moves. *)
        Engine.Sim.Timer.arm_after sim tm (churn_delay i r)
    end
  in
  for i = 0 to n - 1 do
    let tm = Engine.Sim.Timer.create sim (fire i) in
    timers.(i) <- Some tm;
    Engine.Sim.Timer.arm_after sim tm (churn_delay i 0)
  done;
  Engine.Sim.run sim;
  Engine.Sim.events_executed sim

(* cell-storm: [links] spokes of a star each serialize [cells] cells
   back to back.  Per cell: a tx-done clock at the serialization time,
   a propagation one-shot at tx-done (inherently per-packet on both
   sides), and a feedback watchdog armed at send and cancelled when
   the delivery comes back.  2 executed events per cell. *)

let tx_time = Time.us 136 (* 512-byte cell at ~30 Mbit/s *)
let prop_delay = Time.ms 10
let watchdog_delay = Time.ms 300

let cell_storm_baseline ~links ~cells () =
  let sim = Baseline.Sim.create () in
  let sent = Array.make links 0 in
  let watchdog = Array.make links None in
  let rec send i () =
    sent.(i) <- sent.(i) + 1;
    (* Feedback watchdog for this cell. *)
    watchdog.(i) <- Some (Baseline.Sim.schedule_after sim watchdog_delay (fun () -> ()));
    ignore
      (Baseline.Sim.schedule_after sim tx_time (fun () ->
           (* tx done: propagation one-shot carries the cell. *)
           ignore
             (Baseline.Sim.schedule_after sim prop_delay (fun () ->
                  (* delivered: feedback cancels the watchdog. *)
                  (match watchdog.(i) with
                  | Some h -> Baseline.Sim.cancel sim h
                  | None -> ());
                  if sent.(i) < cells then send i ()))))
  in
  for i = 0 to links - 1 do
    send i ()
  done;
  Baseline.Sim.run sim;
  sim.executed

let cell_storm_wheel ~links ~cells () =
  let sim = Engine.Sim.create () in
  let sent = Array.make links 0 in
  let tx = Array.make links None in
  let wd = Array.make links None in
  let deliver = Array.make links (fun () -> ()) in
  let get a i = match a.(i) with Some tm -> tm | None -> assert false in
  let send i =
    sent.(i) <- sent.(i) + 1;
    Engine.Sim.Timer.arm_after sim (get wd i) watchdog_delay;
    Engine.Sim.Timer.arm_after sim (get tx i) tx_time
  in
  for i = 0 to links - 1 do
    wd.(i) <- Some (Engine.Sim.Timer.create sim (fun () -> ()));
    deliver.(i) <-
      (fun () ->
        Engine.Sim.Timer.cancel sim (get wd i);
        if sent.(i) < cells then send i);
    tx.(i) <-
      Some
        (Engine.Sim.Timer.create sim (fun () ->
             ignore (Engine.Sim.schedule_after sim prop_delay deliver.(i))))
  done;
  for i = 0 to links - 1 do
    send i
  done;
  Engine.Sim.run sim;
  Engine.Sim.events_executed sim

(* retransmit-heavy: cell-storm where every [loss_every]-th cell is
   lost in flight, so the watchdog fires for real, backs off and
   retransmits; the retry always succeeds.  Lost cell: tx-done +
   watchdog + retry tx-done + delivery = 4 events; clean cell: 2. *)

let loss_every = 5

let retransmit_baseline ~links ~cells () =
  let sim = Baseline.Sim.create () in
  let sent = Array.make links 0 in
  let watchdog = Array.make links None in
  let rec send i ~lose () =
    (if not lose then sent.(i) <- sent.(i) + 1);
    (* Lost: the watchdog retries directly — a fresh closure per
       attempt, like the old hop sender. *)
    let retransmit () = send i ~lose:false () in
    watchdog.(i) <- Some (Baseline.Sim.schedule_after sim watchdog_delay retransmit);
    ignore
      (Baseline.Sim.schedule_after sim tx_time (fun () ->
           if lose then () (* in-flight loss: no delivery, watchdog will fire *)
           else
             ignore
               (Baseline.Sim.schedule_after sim prop_delay (fun () ->
                    (match watchdog.(i) with
                    | Some h -> Baseline.Sim.cancel sim h
                    | None -> ());
                    if sent.(i) < cells then
                      send i ~lose:(sent.(i) mod loss_every = 0) ()))))
  in
  for i = 0 to links - 1 do
    send i ~lose:false ()
  done;
  Baseline.Sim.run sim;
  sim.executed

let retransmit_wheel ~links ~cells () =
  let sim = Engine.Sim.create () in
  let sent = Array.make links 0 in
  let losing = Array.make links false in
  let tx = Array.make links None in
  let wd = Array.make links None in
  let deliver = Array.make links (fun () -> ()) in
  let get a i = match a.(i) with Some tm -> tm | None -> assert false in
  let send i ~lose =
    (if not lose then sent.(i) <- sent.(i) + 1);
    losing.(i) <- lose;
    Engine.Sim.Timer.arm_after sim (get wd i) watchdog_delay;
    Engine.Sim.Timer.arm_after sim (get tx i) tx_time
  in
  for i = 0 to links - 1 do
    deliver.(i) <-
      (fun () ->
        Engine.Sim.Timer.cancel sim (get wd i);
        if sent.(i) < cells then send i ~lose:(sent.(i) mod loss_every = 0));
    wd.(i) <-
      (* The watchdog retries through the same pair of clocks: one
         in-place rearm, no allocation. *)
      Some (Engine.Sim.Timer.create sim (fun () -> send i ~lose:false));
    tx.(i) <-
      Some
        (Engine.Sim.Timer.create sim (fun () ->
             if not losing.(i) then
               ignore (Engine.Sim.schedule_after sim prop_delay deliver.(i))))
  done;
  for i = 0 to links - 1 do
    send i ~lose:false
  done;
  Engine.Sim.run sim;
  Engine.Sim.events_executed sim

(* ------------------------------------------------------------------ *)
(* Driver. *)

type measurement = {
  target : string;
  side : string; (* "heap-baseline" | "timer-wheel" *)
  events : int;
  seconds : float;
  minor_words_per_event : float;
}

let events_per_sec m =
  if m.seconds > 0. then float_of_int m.events /. m.seconds else 0.

let measure ~target ~side f =
  (* One untimed run to warm the code and size the heaps, then the
     timed run from a compacted heap so minor-word deltas are clean. *)
  ignore (f ());
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let events = f () in
  let seconds = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  {
    target;
    side;
    events;
    seconds;
    minor_words_per_event =
      (if events > 0 then words /. float_of_int events else 0.);
  }

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path pairs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"pr\": 4,\n  \"targets\": [\n";
  let n = List.length pairs in
  List.iteri
    (fun i (base, wheel) ->
      let speedup =
        let b = events_per_sec base and w = events_per_sec wheel in
        if b > 0. then w /. b else 0.
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"events\": %d,\n\
           \     \"heap_baseline\": {\"seconds\": %.6f, \"events_per_sec\": %.1f, \
            \"minor_words_per_event\": %.2f},\n\
           \     \"timer_wheel\": {\"seconds\": %.6f, \"events_per_sec\": %.1f, \
            \"minor_words_per_event\": %.2f},\n\
           \     \"speedup\": %.3f}%s\n"
           (json_escape base.target) base.events base.seconds (events_per_sec base)
           base.minor_words_per_event wheel.seconds (events_per_sec wheel)
           wheel.minor_words_per_event speedup
           (if i = n - 1 then "" else ",")))
    pairs;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[json] %s\n" path

let () =
  let smoke = ref false in
  let json = ref "BENCH_pr4.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--json" :: path :: rest ->
        json := path;
        parse rest
    | arg :: _ ->
        Printf.eprintf "usage: ubench [--smoke] [--json F] (got %S)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let scale n = if !smoke then Stdlib.max 1 (n / 20) else n in
  let churn_n = scale 2_000 and churn_rounds = 500 in
  let storm_links = scale 200 and storm_cells = 2_000 in
  let retx_links = scale 200 and retx_cells = 1_500 in
  let targets =
    [
      ( "timer-churn",
        timer_churn_baseline ~n:churn_n ~rounds:churn_rounds,
        timer_churn_wheel ~n:churn_n ~rounds:churn_rounds );
      ( "cell-storm",
        cell_storm_baseline ~links:storm_links ~cells:storm_cells,
        cell_storm_wheel ~links:storm_links ~cells:storm_cells );
      ( "retransmit-heavy",
        retransmit_baseline ~links:retx_links ~cells:retx_cells,
        retransmit_wheel ~links:retx_links ~cells:retx_cells );
    ]
  in
  let pairs =
    List.map
      (fun (name, base_f, wheel_f) ->
        let base = measure ~target:name ~side:"heap-baseline" base_f in
        let wheel = measure ~target:name ~side:"timer-wheel" wheel_f in
        if base.events <> wheel.events then begin
          Printf.eprintf
            "ubench: %s executed %d events on the heap but %d on the wheel — the \
             two sides diverged\n"
            name base.events wheel.events;
          exit 1
        end;
        (base, wheel))
      targets
  in
  let t =
    Analysis.Table.create
      ~columns:
        [ "target"; "events"; "heap ev/s"; "wheel ev/s"; "speedup"; "heap w/ev";
          "wheel w/ev" ]
  in
  List.iter
    (fun (base, wheel) ->
      Analysis.Table.add_row t
        [
          base.target;
          string_of_int base.events;
          Printf.sprintf "%.0f" (events_per_sec base);
          Printf.sprintf "%.0f" (events_per_sec wheel);
          Printf.sprintf "%.2fx" (events_per_sec wheel /. events_per_sec base);
          Printf.sprintf "%.1f" base.minor_words_per_event;
          Printf.sprintf "%.1f" wheel.minor_words_per_event;
        ])
    pairs;
  print_string (Analysis.Table.render t);
  (* The one-line summary CI greps for. *)
  let tot_base_ev = List.fold_left (fun a (b, _) -> a + b.events) 0 pairs in
  let tot_base_s = List.fold_left (fun a (b, _) -> a +. b.seconds) 0. pairs in
  let tot_wheel_s = List.fold_left (fun a (_, w) -> a +. w.seconds) 0. pairs in
  let avg_w side =
    List.fold_left (fun a p -> a +. (side p).minor_words_per_event) 0. pairs
    /. float_of_int (List.length pairs)
  in
  Printf.printf
    "ubench summary: wheel %.0f events/s vs heap %.0f events/s (%.2fx), minor \
     words/event %.1f vs %.1f\n"
    (float_of_int tot_base_ev /. tot_wheel_s)
    (float_of_int tot_base_ev /. tot_base_s)
    (tot_base_s /. tot_wheel_s)
    (avg_w snd) (avg_w fst);
  write_json !json pairs
