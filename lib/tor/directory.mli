(** The directory: the set of known relays and path selection.

    Path selection follows Tor's essentials: positions are filled
    guard → exit → middle, each choice is weighted by relay bandwidth
    (faster relays carry proportionally more circuits), a relay appears
    at most once per path, and position flags are honoured.  This is
    what makes the random star networks of the CDF experiment exhibit
    realistic bottleneck diversity.

    The relay set is static: clients draw from every relay ever
    {!add}ed, and live status is never consulted.  A crashed relay
    stays selectable; sessions route around it with their own
    exclusion list ({!Session}).  Relay churn is modelled at round
    level, in [Workload.Network_experiment]. *)

type t

type selection =
  | Bandwidth_weighted
      (** Each position is drawn with probability proportional to relay
          bandwidth — Tor's load-balancing default. *)
  | Uniform  (** Each position is drawn uniformly from the candidates. *)

val selection_to_string : selection -> string
(** ["bandwidth"] or ["uniform"].  Test reference: the selection
    strings test round-trips {!selection_of_string} through it. *)

val selection_of_string : string -> selection option
(** Accepts ["bandwidth"]/["bw"]/["weighted"] and
    ["uniform"]/["random"]; [None] otherwise. *)

val create : unit -> t

val add : t -> Relay_info.t -> unit
(** The relay joins the population and is selectable immediately. *)

val relays : t -> Relay_info.t list
(** The population, insertion order. *)

val select_path :
  t ->
  Engine.Rng.t ->
  ?selection:selection ->
  ?exclude:Netsim.Node_id.t list ->
  hops:int ->
  unit ->
  Relay_info.t list option
(** [select_path dir rng ~hops] draws a path of [hops] distinct relays
    from {!relays}: position 0 needs [Guard], the last position needs
    [Exit], middles need no flag.  [selection] (default
    [Bandwidth_weighted]) picks the drawing policy; relays whose node
    appears in [exclude] (default none) are never chosen — sessions use
    this to route around suspected-dead relays.  [None] if the directory cannot satisfy the
    constraints.  Raises [Invalid_argument] if [hops < 1]. *)
