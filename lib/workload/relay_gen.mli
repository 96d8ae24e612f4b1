(** Synthetic relay populations.

    Substitution for the paper's "randomly generated network of Tor
    relays" (DESIGN.md): relay bandwidths are drawn log-normally —
    matching the heavy right tail of the public Tor consensus, where a
    small number of fast relays carries most traffic — and clamped to a
    plausible range; access latencies are uniform.  The distribution
    parameters are explicit so ablations can vary the bottleneck
    diversity. *)

type spec = {
  nickname : string;
  bandwidth : Engine.Units.Rate.t;
  latency : Engine.Time.t;
  flags : Tor_model.Relay_info.flag list;
}

type config = {
  bandwidth_median_mbit : float;  (** Median of the log-normal, Mbit/s. *)
  bandwidth_sigma : float;  (** Log-space sigma (tail heaviness). *)
  bandwidth_min_mbit : float;  (** Lower clamp. *)
  bandwidth_max_mbit : float;  (** Upper clamp. *)
  latency_min : Engine.Time.t;
  latency_max : Engine.Time.t;
  exit_fraction : float;  (** Fraction of relays flagged [Exit]. *)
}

val default_config : config
(** Median 10 Mbit/s, sigma 0.75, clamps 1–100 Mbit/s, latency
    5–15 ms, every third relay an exit ([exit_fraction = 0.34]). *)

val validate_config : config -> (config, string) result

(** A drawn population as flat arrays, indexed by relay id. *)
type population = {
  bandwidths : Engine.Units.Rate.t array;
  latencies : Engine.Time.t array;
  is_exit : bool array;  (** Flagged [Exit]. *)
}

val draw : Engine.Rng.t -> config -> n:int -> population
(** [draw rng config ~n] draws [n] relays, in id order: a log-normal
    bandwidth (two uniforms) clamped to the config's range, then a
    uniform latency (one uniform, none when [latency_min =
    latency_max]).  [Exit] goes to about [exit_fraction * n] relays
    round-robin, relay 0 first, so path selection always finds exits.
    It allocates the three arrays and no record per relay: the
    consensus-scale engine reads nothing else.  Raises
    [Invalid_argument] on [n <= 0] or an invalid config. *)

val generate : Engine.Rng.t -> config -> n:int -> spec list
(** [generate rng config ~n] is {!draw} as specs: relay [i] is named
    [relay%02d], takes the [i]-th bandwidth and latency, and gets
    [Guard]/[Fast]/[Stable], plus [Exit] where {!draw} flags it.  The
    draws are {!draw}'s, so both give the same population from the
    same stream.  Raises [Invalid_argument] on [n <= 0] or an invalid
    config. *)
