(** Constant-bit-rate background traffic.

    An unresponsive packet source: fixed-size packets paced at a fixed
    rate from one node to another, regardless of congestion.  Used as
    cross traffic in the contention experiments — a delay-based
    transport sharing a link with CBR load should settle onto the
    *residual* capacity rather than fight for more. *)

type t

val start :
  Network.t ->
  src:Node_id.t ->
  dst:Node_id.t ->
  rate:Engine.Units.Rate.t ->
  ?packet_size:int ->
  unit ->
  t
(** Begin emitting immediately; the first packet leaves one inter-packet
    interval from now.  [packet_size] defaults to 512 bytes.  Raises
    [Invalid_argument] if [packet_size <= 0]. *)

val packets_sent : t -> int
val bytes_sent : t -> int
(** Test-only: a counter accessor that ROADMAP item 4's probes replace. *)
