(** A fixed pool of OCaml 5 domains for embarrassingly parallel sweeps,
    plus a reusable shard team for within-run parallelism.

    Every figure and table of the reproduction is a grid of independent
    simulations (seeds x configs); each replicate builds its own
    {!Sim.t} and {!Rng.t} and shares no mutable state with its
    siblings, so they can run on separate domains.  [map] hands tasks
    to a fixed set of worker domains through a single atomic cursor
    (each worker claims the next unclaimed index) and stores every
    result in the slot of its task, so the output order is the input
    order no matter which domain ran what, and a parallel sweep is
    byte-identical to a sequential one.

    The pool is for coarse tasks — whole simulations, hundreds of
    milliseconds each — not for fine-grained data parallelism.  For
    splitting {e one} simulation across domains, {!Team} keeps a set of
    long-lived workers parked between barriers so a run can rendezvous
    thousands of times without respawning domains. *)

val env_jobs : unit -> (int option, string) result
(** The [CIRCUITSTART_JOBS] environment variable, parsed and validated:
    [Ok None] when unset or empty, [Ok (Some n)] for a positive integer
    (clamped to 128), and [Error msg] — a friendly one-line message in
    the CLI flag-validation style — when set to anything else.  CLIs
    call this at startup so a typo fails fast instead of silently
    falling back. *)

val default_jobs : unit -> int
(** Worker count used when [?jobs] is omitted (and the default of the
    CLIs' [--jobs] flag): a valid [CIRCUITSTART_JOBS], else
    [Domain.recommended_domain_count ()].  A malformed
    [CIRCUITSTART_JOBS] is ignored here — [default_jobs] stays total —
    and reported by {!env_jobs}. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ~jobs f tasks] is [List.map f tasks], computed by [jobs]
    domains (clamped to the task count; [jobs <= 1] runs everything in
    the calling domain, spawning nothing).  Results are in task order.

    If one or more tasks raise, the remaining claimed tasks still run
    to completion, every domain is joined, and then the exception of
    the {e lowest-indexed} failed task is re-raised (with its
    backtrace) — deterministic regardless of scheduling.  Raises
    [Invalid_argument] if [jobs < 1]. *)

(** A reusable team of dedicated worker domains for sharded runs.

    [create ~shards:k] spawns [k - 1] long-lived domains; each
    {!Team.run} is one barrier-to-barrier step in which member [i]
    (the caller is member 0) executes the job for shard [i].  Workers
    park on a condition variable between runs — a blocking rendezvous,
    not a spin barrier, so oversubscribed hosts (fewer cores than
    shards) degrade gracefully instead of livelocking.  A sharded
    simulation calls [run] once per exchange window, thousands of
    times per run, against the same team. *)
module Team : sig
  type t

  val create : ?shards:int -> unit -> t
  (** [shards] defaults to {!default_jobs}; raises [Invalid_argument]
      if [shards < 1].  [shards = 1] spawns nothing and [run] executes
      entirely in the calling domain. *)

  val run : t -> (int -> unit) -> unit
  (** Execute [f shard] on every member concurrently (the caller runs
      shard 0) and return once all have finished.  If members raise,
      the {e lowest} shard's exception is re-raised with its backtrace
      after every member has checked in, and the team remains usable.
      Raises [Invalid_argument] after {!shutdown}. *)

  val minor_words : t -> float
  (** Total minor words allocated by the {e worker} domains across all
      [run]s so far.  The calling domain's share is deliberately
      excluded — the caller reads its own [Gc.minor_words] delta and
      adds this, so nothing is counted twice. *)

  val shutdown : t -> unit
  (** Stop and join the worker domains.  Idempotent. *)
end
