(** The performance-trajectory ratchet behind [bench/trajectory.exe].

    Reads throughput/allocation metrics back out of the BENCH_*.json
    reports the benchmark targets write, prints the cumulative
    trajectory across the PR sequence, and checks blessed floors so a
    perf regression fails CI.  The reports are hand-written JSON with
    known scalar keys, so the "parser" is a quoted-key number scanner —
    no JSON library (the container has none), no AST.

    The floors file (bench/perf_floors.txt) is the ratchet: one
    [file key min|max bound] line per gated metric, blessed on the
    reference machine and only ever moved forward. *)

type direction =
  | Min  (** higher is better; pass at [bound * (1 - tolerance)] *)
  | Max  (** lower is better; pass at [bound * (1 + tolerance)] *)

type floor = {
  file : string;  (** report the metric lives in, e.g. ["BENCH_pr7.json"] *)
  key : string;  (** JSON key of a numeric scalar in that report *)
  direction : direction;
  bound : float;  (** the blessed value *)
  min_cores : int option;
      (** [Some n]: skip (pass, flagged) when the report's own
          ["host_cores"] value is absent or below [n] — a parallel
          speedup measured on a smaller host proves nothing either
          way.  Written as a fifth [min-cores=N] token in the floors
          file. *)
}

type outcome = {
  floor : floor;
  value : float option;  (** [None]: file unreadable or key absent *)
  limit : float;  (** bound with the tolerance applied *)
  ok : bool;
  skipped : bool;
      (** The floor's [min_cores] requirement was unmet: [ok] is true
          but the metric was not actually enforced on this host. *)
}

val find_number : key:string -> string -> float option
(** First numeric value bound to the quoted [key] in the text, if
    any.  Test reference: the gate's unit tests pin the scanner
    directly; it goes with [Perf_gate] (ROADMAP item 3). *)

val find_numbers : key:string -> string -> float list
(** All numeric values bound to the quoted [key], in document
    order.  Test reference, like {!find_number}. *)

val parse_floors : string -> (floor list, string) result
(** Parse a floors file: one [file key min|max bound [min-cores=N]]
    per line, ['#'] comments, blank lines ignored.  Errors carry the
    line number. *)

val check :
  tolerance:float -> read:(string -> string option) -> floor list -> outcome list
(** Evaluate every floor.  [read] maps a report filename to its
    contents ([None] if unreadable).  The tolerance only ever loosens
    the gate; a missing file or key fails its floor — a gate that
    silently skips a metric is not a gate.  Raises [Invalid_argument]
    on a negative or non-finite tolerance. *)

val pp_outcome : Format.formatter -> outcome -> unit

type row = {
  report : string;
  events_per_sec : float option;
  minor_words_per_event : float option;
  speedup_2 : float option;
      (** Sharded-over-sequential events/sec ratio at 2 shards, where
          the report records one. *)
  speedup_4 : float option;
  sim_events : float;
      (** Sum of the report's per-target ["sim_events"] counts. *)
  cumulative_events : float;  (** Running sum across the sequence. *)
}

val trajectory : (string * string) list -> row list
(** One row per [(report_name, contents)], in the given order — the
    callers sort BENCH_* filenames, which orders them by PR. *)
