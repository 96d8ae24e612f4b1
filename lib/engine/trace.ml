type kind =
  | Fault
  | Recovery
  | Abort
  | Rebuild
  | Resume
  | Exhausted
  | Refused
  | Oom_kill
  | Overload_enter
  | Overload_exit

type event = { time : Time.t; kind : kind; subject : string; detail : string }

type t = {
  table : (string, Timeseries.t) Hashtbl.t;
  mutable events : event list;  (* newest first *)
}

let create () = { table = Hashtbl.create 32; events = [] }

let series t key =
  match Hashtbl.find_opt t.table key with
  | Some ts -> ts
  | None ->
      let ts = Timeseries.create () in
      Hashtbl.add t.table key ts;
      ts

let find t key = Hashtbl.find_opt t.table key
let record t key time v = Timeseries.record (series t key) time v

let kind_to_string = function
  | Fault -> "fault"
  | Recovery -> "recovery"
  | Abort -> "abort"
  | Rebuild -> "rebuild"
  | Resume -> "resume"
  | Exhausted -> "exhausted"
  | Refused -> "refused"
  | Oom_kill -> "oom-kill"
  | Overload_enter -> "overload-enter"
  | Overload_exit -> "overload-exit"

let kind_of_string = function
  | "fault" -> Some Fault
  | "recovery" -> Some Recovery
  | "abort" -> Some Abort
  | "rebuild" -> Some Rebuild
  | "resume" -> Some Resume
  | "exhausted" -> Some Exhausted
  | "refused" -> Some Refused
  | "oom-kill" -> Some Oom_kill
  | "overload-enter" -> Some Overload_enter
  | "overload-exit" -> Some Overload_exit
  | _ -> None

let record_event t kind ~subject ?(detail = "") time =
  t.events <- { time; kind; subject; detail } :: t.events

let events t = List.rev t.events

let events_to_csv t buf =
  Buffer.add_string buf "time_s,kind,subject,detail\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%.9f,%s,%s,%s\n" (Time.to_sec_f e.time)
           (kind_to_string e.kind) e.subject e.detail))
    (events t)

(* Split [s] into the first [n - 1] comma-separated fields plus the
   remainder, so a detail field containing commas survives a round
   trip (neither kind nor subject may contain one). *)
let split_fields s n =
  let rec go start k acc =
    if k = 1 then List.rev (String.sub s start (String.length s - start) :: acc)
    else
      match String.index_from_opt s start ',' with
      | None -> List.rev (String.sub s start (String.length s - start) :: acc)
      | Some i -> go (i + 1) (k - 1) (String.sub s start (i - start) :: acc)
  in
  go 0 n []

let events_of_csv s =
  let lines = String.split_on_char '\n' s in
  List.filter_map
    (fun line ->
      if line = "" || line = "time_s,kind,subject,detail" then None
      else
        match split_fields line 4 with
        | [ time_s; kind_s; subject; detail ] -> (
            match (float_of_string_opt time_s, kind_of_string kind_s) with
            | Some sec, Some kind ->
                Some { time = Time.of_sec_f sec; kind; subject; detail }
            | _ -> None)
        | _ -> None)
    lines

let pp_event fmt e =
  Format.fprintf fmt "[%a] %s %s%s" Time.pp e.time (kind_to_string e.kind)
    e.subject
    (if e.detail = "" then "" else ": " ^ e.detail)
