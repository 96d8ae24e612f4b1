(** Deterministic partitions for sharded consensus-scale runs.

    Pure functions of [(seed, population, shards)]: the sharded
    {!Network_experiment} engine derives every ownership decision —
    which shard sweeps a circuit slot, which shard applies a relay's
    occupancy deltas during the exchange phase — from these, so the
    partition is identical on every machine and across every
    [--jobs]/[--shards] setting. *)

val count : slots:int -> shards:int -> int
(** Effective shard count: [shards] clamped to [slots] so no shard is
    empty.  Raises [Invalid_argument] unless both are positive. *)

val slot_range : slots:int -> shards:int -> int -> int * int
(** [slot_range ~slots ~shards k] is shard [k]'s contiguous slot range
    [(lo, hi)] (half-open).  The ranges of shards [0 .. count - 1]
    tile [0, slots) exactly, in order, balanced to within one slot.
    Raises [Invalid_argument] if [k] is outside [0, count). *)

val relay_shard : seed:int -> shards:int -> int -> int
(** [relay_shard ~seed ~shards r] is the shard that owns relay [r]'s
    occupancy counters during the exchange phase: a seeded SplitMix64
    hash reduced mod [shards].  Every relay lands in exactly one shard
    and the assignment is stable for a given seed.  Raises
    [Invalid_argument] if [shards < 1] or [r < 0]. *)
