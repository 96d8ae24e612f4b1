(** Named probe registry.

    Model components publish time series under string keys
    (["circuit0/cwnd"], ["relay3/queue"]); experiment drivers collect
    them afterwards without threading series through every constructor.
    A registry belongs to one simulation run.

    Alongside the numeric series, the registry keeps a log of discrete
    {e lifecycle events} — faults injected into the network, recoveries
    from them, and circuit aborts — so that an experiment's disturbance
    schedule and its consequences live in the same artefact as the
    series they explain. *)

type t

val create : unit -> t

val series : t -> string -> Timeseries.t
(** [series t key] returns the series registered under [key], creating
    an empty one on first use. *)

val find : t -> string -> Timeseries.t option
(** [find t key] is the series under [key], if any was created. *)

val record : t -> string -> Time.t -> float -> unit
(** [record t key time v] appends to the series under [key]
    (creating it if needed). *)

val keys : t -> string list
(** All registered keys, sorted. *)

(** {1 Lifecycle events} *)

type kind =
  | Fault  (** A disturbance began: loss burst, link outage, relay crash. *)
  | Recovery  (** A disturbance ended: link back up, relay restarted. *)
  | Abort  (** A circuit or transfer gave up (terminal failure). *)
  | Rebuild  (** A session is rebuilding its circuit after a failure. *)
  | Resume
      (** A transfer resumed on a rebuilt circuit; the detail carries
          the resume offset and the time-to-recover. *)
  | Exhausted  (** A session used up its rebuild budget (terminal). *)
  | Refused
      (** A relay refused a CREATE/EXTEND under admission control (it
          is over its circuit or byte budget). *)
  | Oom_kill
      (** An overloaded relay destroyed its heaviest circuit to get
          back under its byte budget. *)
  | Overload_enter  (** A relay crossed into its overloaded state. *)
  | Overload_exit  (** A relay dropped back below its budgets. *)

type event = {
  time : Time.t;
  kind : kind;
  subject : string;  (** What the event concerns, e.g. ["link/hub->relay1"]. *)
  detail : string;  (** Free-form context; may be empty. *)
}

val record_event : t -> kind -> subject:string -> ?detail:string -> Time.t -> unit
(** Append an event to the log ([detail] defaults to empty). *)

val events : t -> event list
(** All recorded events, oldest first. *)

val kind_to_string : kind -> string
(** ["fault"], ["recovery"], ["abort"], ["rebuild"], ["resume"],
    ["exhausted"], ["refused"], ["oom-kill"], ["overload-enter"] or
    ["overload-exit"].  Test-only outside this module: tests name
    kinds with it; the CSV and the printer use it inside. *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string}; [None] on anything else. *)

val events_to_csv : t -> Buffer.t -> unit
(** Append the event log as CSV rows [time_s,kind,subject,detail].
    Test reference: the golden event logs under [test/golden/] are
    written in this format. *)

val events_of_csv : string -> event list
(** Parse rows produced by {!events_to_csv} back into events (the
    header line and blank lines are skipped; unparseable rows are
    dropped).  Commas inside the detail field survive the round trip;
    kind and subject must not contain one.  Timestamps round-trip
    exactly at the nanosecond resolution [events_to_csv] prints.  Test
    reference: the golden tests read the event logs back with it. *)

val pp_event : Format.formatter -> event -> unit
