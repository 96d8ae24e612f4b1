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

let pp_relay_command fmt = function
  | Relay_data { stream_id; seq; length; last } ->
      Format.fprintf fmt "DATA s%d #%d %dB%s" stream_id seq length
        (if last then " last" else "")
  | Relay_sendme { stream_id = None } -> Format.fprintf fmt "SENDME circ"
  | Relay_sendme { stream_id = Some s } -> Format.fprintf fmt "SENDME s%d" s
  | Relay_end { stream_id } -> Format.fprintf fmt "END s%d" stream_id

let pp fmt t =
  match t.command with
  | Create -> Format.fprintf fmt "%a CREATE" Circuit_id.pp t.circuit
  | Created -> Format.fprintf fmt "%a CREATED" Circuit_id.pp t.circuit
  | Extend { next } ->
      Format.fprintf fmt "%a EXTEND->%a" Circuit_id.pp t.circuit Netsim.Node_id.pp next
  | Extended -> Format.fprintf fmt "%a EXTENDED" Circuit_id.pp t.circuit
  | Refused -> Format.fprintf fmt "%a REFUSED busy" Circuit_id.pp t.circuit
  | Destroy -> Format.fprintf fmt "%a DESTROY" Circuit_id.pp t.circuit
  | Relay { layers; cmd } ->
      Format.fprintf fmt "%a RELAY[%d] %a" Circuit_id.pp t.circuit layers
        pp_relay_command cmd

(* Compare-and-set so concurrent domains finalizing networks register
   the printer exactly once. *)
let registered = Atomic.make false

let register_printer () =
  if Atomic.compare_and_set registered false true then begin
    Netsim.Payload.describe (function
      | Wire c -> Some (Format.asprintf "%a" pp c)
      | _ -> None)
  end
