let wrap ~hops cmd circuit =
  if hops < 1 then invalid_arg "Crypto_sim.wrap: need at least one hop";
  Cell.make circuit (Cell.Relay { layers = hops; cmd })

let peel (cell : Cell.t) =
  match cell.command with
  | Cell.Relay { layers; cmd } ->
      if layers < 1 then invalid_arg "Crypto_sim.peel: no layers left";
      Cell.make cell.circuit (Cell.Relay { layers = layers - 1; cmd })
  | Cell.Create | Cell.Created | Cell.Extend _ | Cell.Extended | Cell.Destroy
  | Cell.Refused ->
      invalid_arg "Crypto_sim.peel: not a RELAY cell"

let exposed (cell : Cell.t) =
  match cell.command with
  | Cell.Relay { layers = 0; cmd } -> Some cmd
  | Cell.Relay _ | Cell.Create | Cell.Created | Cell.Extend _ | Cell.Extended
  | Cell.Destroy | Cell.Refused ->
      None

let layers (cell : Cell.t) =
  match cell.command with
  | Cell.Relay { layers; _ } -> Some layers
  | Cell.Create | Cell.Created | Cell.Extend _ | Cell.Extended | Cell.Destroy
  | Cell.Refused ->
      None
