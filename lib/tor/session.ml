type reason = Rebuild_budget | No_path

let reason_to_string = function
  | Rebuild_budget -> "rebuild-budget"
  | No_path -> "no-path"

type outcome =
  | Completed of { at : Engine.Time.t; rebuilds : int }
  | Exhausted of { at : Engine.Time.t; reason : reason; rebuilds : int }

type transfer_handle = {
  start : unit -> unit;
  delivered : unit -> int;
  teardown : unit -> unit;
}

type deploy =
  circuit:Circuit.t ->
  offset:int ->
  on_complete:(Engine.Time.t -> unit) ->
  on_fail:(failed_hop:int option -> Engine.Time.t -> unit) ->
  transfer_handle

type phase = Idle | Building | Transferring | Backing_off | Finished of outcome

type t = {
  sb : Switchboard.t;
  dir : Directory.t;
  ids : Circuit_id.gen;
  server : Netsim.Node_id.t;
  rng : Engine.Rng.t;
  hops : int;
  deploy : deploy;
  selection : Directory.selection;
  max_rebuilds : int;
  build_timeout : Engine.Time.t;
  backoff_base : Engine.Time.t;
  backoff_cap : Engine.Time.t;
  backoff_jitter : float;
  trace : (Engine.Trace.t * string) option;
  on_outcome : (outcome -> unit) option;
  mutable phase : phase;
  (* Relays suspected dead: never drawn again by this session. *)
  mutable exclusions : Netsim.Node_id.Set.t;
  mutable current : Circuit.t option;
  mutable handle : transfer_handle option;
  mutable rebuild_count : int;
  mutable refused_builds : int;
  (* The failure that the in-progress recovery is recovering from;
     cleared when the resumed transfer starts. *)
  mutable failure_at : Engine.Time.t option;
  mutable recoveries : Engine.Time.t list;  (* newest first *)
}

let sim t = Netsim.Network.sim (Switchboard.network t.sb)
let now t = Engine.Sim.now (sim t)

let record t kind detail =
  match t.trace with
  | Some (registry, prefix) ->
      Engine.Trace.record_event registry kind ~subject:prefix ~detail (now t)
  | None -> ()

let create ~sb ~directory ~ids ~server ~rng ~hops ~deploy
    ?(selection = Directory.Bandwidth_weighted) ?(max_rebuilds = 3)
    ?(build_timeout = Engine.Time.s 10) ?(backoff_base = Engine.Time.ms 250)
    ?(backoff_cap = Engine.Time.s 4) ?(backoff_jitter = 0.25) ?trace ?on_outcome
    () =
  if hops < 1 then invalid_arg "Session.create: hops must be positive";
  if max_rebuilds < 0 then invalid_arg "Session.create: max_rebuilds must be >= 0";
  if backoff_jitter < 0. then invalid_arg "Session.create: backoff_jitter must be >= 0";
  if Engine.Time.(backoff_base <= Engine.Time.zero) then
    invalid_arg "Session.create: backoff_base must be positive";
  if Engine.Time.(backoff_cap < backoff_base) then
    invalid_arg "Session.create: backoff_cap must be >= backoff_base";
  {
    sb; dir = directory; ids; server; rng; hops; deploy; selection; max_rebuilds;
    build_timeout; backoff_base; backoff_cap; backoff_jitter; trace; on_outcome;
    phase = Idle;
    exclusions = Netsim.Node_id.Set.empty;
    current = None;
    handle = None;
    rebuild_count = 0;
    refused_builds = 0;
    failure_at = None;
    recoveries = [];
  }

let offset t = match t.handle with Some h -> h.delivered () | None -> 0

let finish t outcome =
  t.phase <- Finished outcome;
  (match outcome with
  | Exhausted { reason; rebuilds; _ } ->
      record t Engine.Trace.Exhausted
        (Printf.sprintf "%s after %d rebuild%s, %d bytes delivered"
           (reason_to_string reason) rebuilds
           (if rebuilds = 1 then "" else "s")
           (offset t))
  | Completed _ -> ());
  match t.on_outcome with Some f -> f outcome | None -> ()

let exclude t node = t.exclusions <- Netsim.Node_id.Set.add node t.exclusions

(* Tear the failed generation down: the data plane unregisters its
   per-node state, and a DESTROY from the client walks the control
   plane's routing entries along the still-live prefix (it stops at a
   crashed relay, whose table died with it). *)
let teardown_generation t (circuit : Circuit.t) =
  (match t.handle with Some h -> h.teardown () | None -> ());
  match circuit.relays with
  | guard :: _ ->
      Switchboard.send_cell t.sb ~dst:guard.Relay_info.node
        (Cell.make circuit.id Cell.Destroy)
  | [] -> ()

let rec attempt t =
  match
    Directory.select_path t.dir t.rng ~selection:t.selection
      ~exclude:(Netsim.Node_id.Set.elements t.exclusions)
      ~hops:t.hops ()
  with
  | None ->
      finish t
        (Exhausted { at = now t; reason = No_path; rebuilds = t.rebuild_count })
  | Some relays ->
      let circuit =
        Circuit.make ~id:(Circuit_id.next t.ids)
          ~client:(Switchboard.node t.sb) ~relays ~server:t.server
      in
      t.current <- Some circuit;
      t.phase <- Building;
      Circuit_builder.build t.sb circuit ~timeout:t.build_timeout
        ~on_done:(function
          | Circuit_builder.Failed msg ->
              (* No way to tell which relay stalled the ladder: suspect
                 the whole path. *)
              List.iter (fun (r : Relay_info.t) -> exclude t r.node) relays;
              if t.failure_at = None then t.failure_at <- Some (now t);
              handle_failure t (Printf.sprintf "build failed: %s" msg)
          | Circuit_builder.Refused _ ->
              (* Busy is not crashed: a busy relay may be the best
                 choice once its load drains, so nobody joins the
                 exclusion list; the backoff plus a fresh path draw is
                 the whole response. *)
              t.refused_builds <- t.refused_builds + 1;
              record t Engine.Trace.Refused
                (Printf.sprintf "build refused (busy); refusals %d"
                   t.refused_builds);
              if t.failure_at = None then t.failure_at <- Some (now t);
              handle_failure t "build refused: relay busy"
          | Circuit_builder.Established _ ->
              let off = offset t in
              let handle =
                t.deploy ~circuit ~offset:off
                  ~on_complete:(fun at -> on_complete t at)
                  ~on_fail:(fun ~failed_hop at ->
                    on_transfer_fail t circuit ~failed_hop at)
              in
              t.handle <- Some handle;
              t.phase <- Transferring;
              (* Watch the circuit for a remote DESTROY while the
                 transfer runs: an overloaded relay shedding load (OOM
                 kill) tells the client this way.  The builder
                 unregistered its handler before [on_done], so the id
                 is free. *)
              Switchboard.register_circuit t.sb circuit.id
                (fun ~from:_ (cell : Cell.t) ->
                  match cell.command with
                  | Cell.Destroy -> on_remote_destroy t circuit
                  | _ -> ());
              (match t.failure_at with
              | Some failed ->
                  let recovered_in = Engine.Time.diff (now t) failed in
                  t.recoveries <- recovered_in :: t.recoveries;
                  t.failure_at <- None;
                  record t Engine.Trace.Resume
                    (Printf.sprintf "offset=%d recovered_in=%.6fs" off
                       (Engine.Time.to_sec_f recovered_in))
              | None -> ());
              handle.start ())
        ()

and on_complete t at =
  match t.phase with
  | Transferring ->
      (match t.current with
      | Some c ->
          Switchboard.unregister_circuit t.sb c.id;
          (* Close the finished circuit cleanly, as a real client
             would: without the DESTROY every relay on the path keeps
             its routing entry — and, under admission control, the
             circuit-budget slot it occupies — forever, starving later
             arrivals. *)
          teardown_generation t c
      | None -> ());
      finish t (Completed { at; rebuilds = t.rebuild_count })
  | Idle | Building | Backing_off | Finished _ -> ()

(* A relay destroyed the circuit under us (OOM shedding).  The client
   cannot tell which relay was overloaded, and busy is not crashed —
   so, as with refusals, nobody is excluded: tear down, back off,
   rebuild on a fresh path draw. *)
and on_remote_destroy t (circuit : Circuit.t) =
  match t.phase with
  | Transferring
    when (match t.current with
         | Some c -> Circuit_id.to_int c.id = Circuit_id.to_int circuit.id
         | None -> false) ->
      Switchboard.unregister_circuit t.sb circuit.id;
      t.failure_at <- Some (now t);
      teardown_generation t circuit;
      handle_failure t "circuit destroyed remotely (overloaded relay)"
  | Idle | Building | Transferring | Backing_off | Finished _ -> ()

and on_transfer_fail t circuit ~failed_hop at =
  match t.phase with
  | Transferring ->
      Switchboard.unregister_circuit t.sb circuit.id;
      t.failure_at <- Some at;
      (* The sender at [failed_hop] declared its successor — path
         position [failed_hop + 1] — unreachable.  Exclude it if it is
         a relay (a dead server cannot be routed around). *)
      (match failed_hop with
      | Some pos -> (
          match List.nth_opt (Circuit.nodes circuit) (pos + 1) with
          | Some node when not (Netsim.Node_id.equal node t.server) ->
              exclude t node
          | Some _ | None -> ())
      | None -> ());
      teardown_generation t circuit;
      handle_failure t
        (Printf.sprintf "transfer failed at hop %s"
           (match failed_hop with Some h -> string_of_int h | None -> "?"))
  | Idle | Building | Backing_off | Finished _ -> ()

and handle_failure t detail =
  if t.rebuild_count >= t.max_rebuilds then
    finish t
      (Exhausted { at = now t; reason = Rebuild_budget; rebuilds = t.rebuild_count })
  else begin
    t.rebuild_count <- t.rebuild_count + 1;
    (* Exponential backoff with a cap, stretched by uniform jitter so a
       thundering herd of sessions does not rebuild in lockstep. *)
    let doublings = Stdlib.min (t.rebuild_count - 1) 16 in
    let base = Engine.Time.to_sec_f t.backoff_base *. (2. ** float_of_int doublings) in
    let capped = Float.min base (Engine.Time.to_sec_f t.backoff_cap) in
    let jitter =
      if t.backoff_jitter > 0. then 1. +. Engine.Rng.float t.rng t.backoff_jitter
      else 1.
    in
    let delay = Engine.Time.of_sec_f (capped *. jitter) in
    t.phase <- Backing_off;
    record t Engine.Trace.Rebuild
      (Printf.sprintf "%s; rebuild %d/%d in %.3fs" detail t.rebuild_count
         t.max_rebuilds (Engine.Time.to_sec_f delay));
    ignore (Engine.Sim.schedule_after (sim t) delay (fun () -> attempt t)
            : Engine.Sim.handle)
  end

let start t =
  match t.phase with
  | Idle -> attempt t
  | Building | Transferring | Backing_off | Finished _ ->
      invalid_arg "Session.start: already started"

let outcome t = match t.phase with Finished o -> Some o | _ -> None
let rebuilds t = t.rebuild_count
let refused_builds t = t.refused_builds
let delivered_bytes t = offset t
let excluded t = Netsim.Node_id.Set.elements t.exclusions
let recovery_times t = List.rev t.recoveries
