(* The performance-trajectory ratchet behind [bench/trajectory.exe].

   Every benchmark run leaves a BENCH_*.json report; this module reads
   the throughput and allocation metrics back out of those reports and
   checks the newest ones against blessed floors, so a perf regression
   fails CI instead of silently eroding the events/sec the earlier PRs
   bought.  The repo deliberately has no JSON library — the reports are
   written by hand with known key names, so a scanner that finds
   ["key": <number>] pairs is the whole parser we need (and it never
   allocates an AST for megabyte reports).

   The floors file is the ratchet: one line per gated metric, blessed
   by a human on the reference machine and moved only forward.  The
   tolerance absorbs machine-to-machine variance; see
   bench/perf_floors.txt for the blessing procedure. *)

type direction = Min | Max

type floor = {
  file : string;  (* report the metric lives in, e.g. BENCH_pr7.json *)
  key : string;  (* JSON key of a numeric scalar in that report *)
  direction : direction;  (* Min: higher is better; Max: lower is better *)
  bound : float;  (* the blessed value *)
  min_cores : int option;
      (* speedup floors are meaningless on hosts with fewer cores than
         shards: [Some n] skips the floor (ok, flagged) when the
         report's own "host_cores" records fewer than [n] cores *)
}

type outcome = {
  floor : floor;
  value : float option;  (* None: file unreadable or key absent *)
  limit : float;  (* bound with the tolerance applied *)
  ok : bool;
  skipped : bool;  (* min_cores unmet: passes without proving anything *)
}

(* --- the scalar scanner ------------------------------------------- *)

let is_number_char c =
  match c with
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* All numeric values of ["key":] in [text], in document order.
   Quoted-key matching cannot false-positive on a value, and the
   reports never put a key inside a string value, so no escape
   handling is needed. *)
let find_numbers ~key text =
  let needle = "\"" ^ key ^ "\"" in
  let nlen = String.length needle and tlen = String.length text in
  let out = ref [] in
  let i = ref 0 in
  while !i + nlen <= tlen do
    if String.sub text !i nlen = needle then begin
      let j = ref (!i + nlen) in
      while !j < tlen && (text.[!j] = ' ' || text.[!j] = '\t') do incr j done;
      if !j < tlen && text.[!j] = ':' then begin
        incr j;
        while
          !j < tlen && (text.[!j] = ' ' || text.[!j] = '\t' || text.[!j] = '\n')
        do
          incr j
        done;
        let start = !j in
        while !j < tlen && is_number_char text.[!j] do incr j done;
        if !j > start then
          match float_of_string_opt (String.sub text start (!j - start)) with
          | Some v -> out := v :: !out
          | None -> ()
      end;
      i := !i + nlen
    end
    else incr i
  done;
  List.rev !out

let find_number ~key text =
  match find_numbers ~key text with v :: _ -> Some v | [] -> None

(* --- the floors file ---------------------------------------------- *)

(* One floor per line: [file key min|max bound [min-cores=N]].  '#'
   starts a comment; blank lines are ignored. *)
let parse_floors text =
  let parse_line lineno line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let parse4 file key dir bound ~min_cores =
      let direction =
        match dir with
        | "min" -> Ok Min
        | "max" -> Ok Max
        | other ->
            Error
              (Printf.sprintf "floors line %d: direction %S is not min/max"
                 lineno other)
      in
      match (direction, float_of_string_opt bound) with
      | Error e, _ -> Error e
      | Ok _, None ->
          Error
            (Printf.sprintf "floors line %d: bound %S is not a number" lineno
               bound)
      | Ok direction, Some bound ->
          Ok (Some { file; key; direction; bound; min_cores })
    in
    match
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun s -> s <> "")
    with
    | [] -> Ok None
    | [ file; key; dir; bound ] -> parse4 file key dir bound ~min_cores:None
    | [ file; key; dir; bound; extra ] -> (
        match String.index_opt extra '=' with
        | Some i
          when String.sub extra 0 i = "min-cores" -> (
            let v = String.sub extra (i + 1) (String.length extra - i - 1) in
            match int_of_string_opt v with
            | Some n when n >= 1 ->
                parse4 file key dir bound ~min_cores:(Some n)
            | _ ->
                Error
                  (Printf.sprintf
                     "floors line %d: min-cores %S is not a positive integer"
                     lineno v))
        | _ ->
            Error
              (Printf.sprintf
                 "floors line %d: fifth token %S is not 'min-cores=N'" lineno
                 extra))
    | _ ->
        Error
          (Printf.sprintf
             "floors line %d: expected 'file key min|max bound [min-cores=N]'"
             lineno)
  in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line lineno line with
        | Error e -> Error e
        | Ok None -> go (lineno + 1) acc rest
        | Ok (Some f) -> go (lineno + 1) (f :: acc) rest)
  in
  go 1 [] (String.split_on_char '\n' text)

(* --- the gate ------------------------------------------------------ *)

(* [Min] floors pass at [bound * (1 - tolerance)] and [Max] floors at
   [bound * (1 + tolerance)]: the tolerance always loosens the gate,
   so it absorbs machine variance without ever tightening a blessing.
   A missing file or key fails — a gate that silently skips a metric
   is not a gate.  The one sanctioned skip is [min-cores=N]: a
   parallel-speedup floor measured on a host with fewer cores than
   shards proves nothing, so when the report's own "host_cores" falls
   short the floor passes flagged as [skipped] (the reference runner
   with enough cores still enforces it). *)
let check ~tolerance ~read floors =
  if not (Float.is_finite tolerance) || tolerance < 0. then
    invalid_arg "Perf_gate.check: tolerance must be >= 0";
  List.map
    (fun f ->
      let text = read f.file in
      let value =
        match text with
        | None -> None
        | Some text -> find_number ~key:f.key text
      in
      let limit =
        match f.direction with
        | Min -> f.bound *. (1. -. tolerance)
        | Max -> f.bound *. (1. +. tolerance)
      in
      let skipped =
        match (f.min_cores, text) with
        | Some need, Some text -> (
            match find_number ~key:"host_cores" text with
            | Some cores -> cores < float_of_int need
            | None -> true)
        | Some _, None -> false (* unreadable report still fails *)
        | None, _ -> false
      in
      let ok =
        skipped
        ||
        match value with
        | None -> false
        | Some v -> ( match f.direction with Min -> v >= limit | Max -> v <= limit)
      in
      { floor = f; value; limit; ok; skipped })
    floors

let pp_outcome fmt o =
  let dir = match o.floor.direction with Min -> ">=" | Max -> "<=" in
  if o.skipped then
    Format.fprintf fmt "skip %s %s: host has fewer than %d cores (floor %s %g)"
      o.floor.file o.floor.key
      (Option.value o.floor.min_cores ~default:0)
      dir o.floor.bound
  else
    match o.value with
    | None ->
        Format.fprintf fmt "FAIL %s %s: metric missing (floor %s %g)"
          o.floor.file o.floor.key dir o.floor.bound
    | Some v ->
        Format.fprintf fmt "%s %s %s: %g %s %g (blessed %g)"
          (if o.ok then "ok  " else "FAIL")
          o.floor.file o.floor.key v dir o.limit o.floor.bound

(* --- the trajectory ------------------------------------------------ *)

type row = {
  report : string;
  events_per_sec : float option;
  minor_words_per_event : float option;
  speedup_2 : float option;  (* shards=1 wall over shards=2 wall *)
  speedup_4 : float option;
  sim_events : float;  (* all "sim_events" occurrences, summed *)
  cumulative_events : float;  (* running sum across the PR sequence *)
}

(* One row per report, in the given order (the callers sort BENCH_*
   filenames, which orders them by PR).  [events_per_sec] and
   [minor_words_per_event] are the report's headline values where
   present; [sim_events] sums every per-target count so heterogeneous
   report shapes still contribute to the cumulative column. *)
let trajectory reports =
  let total = ref 0. in
  List.map
    (fun (report, text) ->
      let sim_events =
        List.fold_left ( +. ) 0. (find_numbers ~key:"sim_events" text)
      in
      total := !total +. sim_events;
      {
        report;
        events_per_sec = find_number ~key:"events_per_sec" text;
        minor_words_per_event = find_number ~key:"minor_words_per_event" text;
        speedup_2 = find_number ~key:"speedup_2" text;
        speedup_4 = find_number ~key:"speedup_4" text;
        sim_events;
        cumulative_events = !total;
      })
    reports
