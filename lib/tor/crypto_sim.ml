let peel (cell : Cell.t) =
  match cell.command with
  | Cell.Relay { layers; cmd } ->
      if layers < 1 then invalid_arg "Crypto_sim.peel: no layers left";
      Cell.make cell.circuit (Cell.Relay { layers = layers - 1; cmd })
  | Cell.Create | Cell.Created | Cell.Extend _ | Cell.Extended | Cell.Destroy
  | Cell.Refused ->
      invalid_arg "Crypto_sim.peel: not a RELAY cell"
