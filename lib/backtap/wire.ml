type Netsim.Payload.t +=
  | Bt_cell of { hop_seq : int; cell : Tor_model.Cell.t }
  | Bt_feedback of { circuit : Tor_model.Circuit_id.t; hop_seq : int }

let cell_size = Tor_model.Cell.size + 8
let feedback_size = 43
