let size = 512
let payload_capacity = 498

type relay_command =
  | Relay_data of { stream_id : int; seq : int; length : int; last : bool }
  | Relay_sendme of { stream_id : int option }
  | Relay_end of { stream_id : int }

type command =
  | Create
  | Created
  | Extend of { next : Netsim.Node_id.t }
  | Extended
  | Refused
  | Destroy
  | Relay of { layers : int; cmd : relay_command }

type t = { circuit : Circuit_id.t; command : command }
type Netsim.Payload.t += Wire of t

let make circuit command = { circuit; command }

let data circuit ~layers ~stream_id ~seq ~length ~last =
  if length < 1 || length > payload_capacity then
    invalid_arg "Cell.data: length out of range";
  if seq < 0 then invalid_arg "Cell.data: negative seq";
  if layers < 0 then invalid_arg "Cell.data: negative layer count";
  make circuit (Relay { layers; cmd = Relay_data { stream_id; seq; length; last } })

let relay_cmd t = match t.command with Relay { cmd; _ } -> Some cmd | _ -> None
