(* Deterministic partitions for sharded consensus-scale runs.

   Everything here is a pure function of (seed, population size, shard
   count): the same inputs give the same partition on every machine,
   every run, and every jobs setting — which is what lets the sharded
   engine promise bit-identical results across shard counts.  Slots are
   split into contiguous balanced ranges (shard-local circuit state
   stays cache-friendly and each shard sweeps one ascending range);
   relays are split by a seeded SplitMix64 hash so the ownership map
   used during the exchange phase is independent of relay ordering. *)

let count ~slots ~shards =
  if shards < 1 then invalid_arg "Shard.count: shards must be positive";
  if slots < 1 then invalid_arg "Shard.count: slots must be positive";
  Stdlib.min shards slots

(* Balanced contiguous ranges: the first [slots mod k] shards get one
   extra slot.  Covers [0, slots) exactly, in shard order. *)
let slot_range ~slots ~shards k =
  let n = count ~slots ~shards in
  if k < 0 || k >= n then invalid_arg "Shard.slot_range: shard out of range";
  let base = slots / n and extra = slots mod n in
  let lo = (k * base) + Stdlib.min k extra in
  let hi = lo + base + if k < extra then 1 else 0 in
  (lo, hi)

(* SplitMix64's output mix — a strong, cheap finalizer.  Folding the
   seed in through the same constants keeps distinct seeds on distinct
   streams without any per-call allocation. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let relay_shard ~seed ~shards r =
  if shards < 1 then invalid_arg "Shard.relay_shard: shards must be positive";
  if r < 0 then invalid_arg "Shard.relay_shard: relay must be non-negative";
  if shards = 1 then 0
  else
    let h =
      mix64
        (Int64.add
           (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
           (Int64.of_int r))
    in
    (* Clear the sign bit after the (wrapping) truncation to a native
       int so the modulus is taken of a non-negative value. *)
    (Int64.to_int h land Stdlib.max_int) mod shards
