let jobs_env_var = "CIRCUITSTART_JOBS"
let max_jobs = 128

let env_jobs () =
  match Sys.getenv_opt jobs_env_var with
  | None | Some "" -> Ok None
  | Some raw -> (
      match int_of_string_opt (String.trim raw) with
      | Some n when n >= 1 -> Ok (Some (Stdlib.min n max_jobs))
      | Some n ->
          Error
            (Printf.sprintf "%s must be a positive integer (got %d)"
               jobs_env_var n)
      | None ->
          Error
            (Printf.sprintf "%s must be a positive integer (got %S)"
               jobs_env_var raw))

let default_jobs () =
  (* [default_jobs] must stay total, so a malformed CIRCUITSTART_JOBS
     falls through to the detected count here; the CLIs call [env_jobs]
     at startup and turn the [Error] into a friendly exit instead. *)
  match env_jobs () with
  | Ok (Some n) -> n
  | Ok None | Error _ -> Domain.recommended_domain_count ()

(* A finished task is either a value or the exception it raised; the
   distinction is resolved only after every domain has joined, so a
   failure cannot leave orphaned domains behind. *)
type 'b outcome = Value of 'b | Raised of exn * Printexc.raw_backtrace

let run_task f x =
  match f x with
  | v -> Value v
  | exception e -> Raised (e, Printexc.get_raw_backtrace ())

let finish results =
  (* Scan in index order so the re-raised exception is the lowest
     failed task's, independent of which domain hit it first. *)
  Array.iter
    (function
      | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Value _) | None -> ())
    results;
  Array.map
    (function Some (Value v) -> v | Some (Raised _) | None -> assert false)
    results

let resolve_jobs ~who jobs n =
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg (who ^ ": jobs must be positive")
    | None -> default_jobs ()
  in
  Stdlib.min jobs n

let map_outcomes ~jobs f tasks =
  (* Every task runs and every domain joins before [finish] looks at
     the outcomes. *)
  let n = Array.length tasks in
  let results = Array.make n None in
  let cursor = Atomic.make 0 in
  (* Each slot is written by exactly one domain (the one that won the
     index at the cursor) and read only after the joins below — no
     data race under the OCaml memory model. *)
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        results.(i) <- Some (run_task f tasks.(i));
        loop ()
      end
    in
    loop ()
  in
  let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  results

let map_list ?jobs f xs =
  let jobs = resolve_jobs ~who:"Pool.map_list" jobs (List.length xs) in
  (* Sequential evaluation already fails on the lowest-indexed raising
     task, matching the parallel contract. *)
  if jobs <= 1 then List.map f xs
  else Array.to_list (finish (map_outcomes ~jobs f (Array.of_list xs)))

module Team = struct
  (* A reusable squad of [shards - 1] long-lived worker domains plus
     the calling domain.  Each [run] is one rendezvous: the caller
     publishes a job under the mutex, every member executes it for its
     own shard id, and the caller blocks until all workers check back
     in.  Workers park on a condition variable between jobs — no
     spinning — which matters when the host has fewer cores than
     shards (CI runners, laptops on battery): a spinning barrier would
     starve the very domains it is waiting for. *)
  type t = {
    shards : int;
    mutex : Mutex.t;
    work_ready : Condition.t;  (* workers wait here for a new epoch *)
    work_done : Condition.t;  (* the caller waits here for the joins *)
    mutable job : (int -> unit) option;
    mutable epoch : int;
    mutable pending : int;
    mutable stopped : bool;
    fails : (exn * Printexc.raw_backtrace) option array;
    (* Minor words allocated by each worker domain while running jobs;
       slot 0 (the calling domain) stays 0 — the caller observes its
       own allocation directly via [Gc.minor_words]. *)
    words : float array;
    mutable domains : unit Domain.t array;
  }

  let worker t shard () =
    let last = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.mutex;
      while t.epoch = !last && not t.stopped do
        Condition.wait t.work_ready t.mutex
      done;
      if t.stopped then begin
        Mutex.unlock t.mutex;
        running := false
      end
      else begin
        last := t.epoch;
        let job = Option.get t.job in
        Mutex.unlock t.mutex;
        let w0 = Gc.minor_words () in
        (match job shard with
        | () -> ()
        | exception e ->
            t.fails.(shard) <- Some (e, Printexc.get_raw_backtrace ()));
        t.words.(shard) <- t.words.(shard) +. (Gc.minor_words () -. w0);
        Mutex.lock t.mutex;
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.signal t.work_done;
        Mutex.unlock t.mutex
      end
    done

  let create ?shards () =
    let shards =
      match shards with
      | Some k when k >= 1 -> k
      | Some _ -> invalid_arg "Pool.Team.create: shards must be positive"
      | None -> default_jobs ()
    in
    let t =
      {
        shards;
        mutex = Mutex.create ();
        work_ready = Condition.create ();
        work_done = Condition.create ();
        job = None;
        epoch = 0;
        pending = 0;
        stopped = false;
        fails = Array.make shards None;
        words = Array.make shards 0.;
        domains = [||];
      }
    in
    t.domains <-
      Array.init (shards - 1) (fun i -> Domain.spawn (worker t (i + 1)));
    t

  let run t f =
    if t.stopped then invalid_arg "Pool.Team.run: team is shut down";
    if t.shards > 1 then begin
      Mutex.lock t.mutex;
      t.job <- Some f;
      t.epoch <- t.epoch + 1;
      t.pending <- t.shards - 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex
    end;
    (* The caller is shard 0's runner; its failure still waits for the
       workers so no job is abandoned mid-flight. *)
    (match f 0 with
    | () -> ()
    | exception e -> t.fails.(0) <- Some (e, Printexc.get_raw_backtrace ()));
    if t.shards > 1 then begin
      Mutex.lock t.mutex;
      while t.pending > 0 do
        Condition.wait t.work_done t.mutex
      done;
      Mutex.unlock t.mutex
    end;
    (* Lowest shard's exception wins, same protocol as [map_list].  A
       plain loop, not a closure over [t]: a run that raises nothing
       allocates nothing. *)
    for j = 0 to Array.length t.fails - 1 do
      match t.fails.(j) with
      | Some (e, bt) ->
          Array.fill t.fails 0 (Array.length t.fails) None;
          Printexc.raise_with_backtrace e bt
      | None -> ()
    done

  let minor_words t = Array.fold_left ( +. ) 0. t.words

  let shutdown t =
    if not t.stopped then begin
      Mutex.lock t.mutex;
      t.stopped <- true;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      Array.iter Domain.join t.domains
    end
end
