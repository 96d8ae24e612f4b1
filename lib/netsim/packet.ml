type t = {
  id : int;
  src : Node_id.t;
  dst : Node_id.t;
  size : int;
  payload : Payload.t;
  sent_at : Engine.Time.t;
}

type id_state = int ref

let fresh_id_state () = ref 0
let next_id ids = !ids

let make ids ~src ~dst ~size ~now payload =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  let id = !ids in
  incr ids;
  { id; src; dst; size; payload; sent_at = now }

let placeholder =
  { id = -1; src = Node_id.of_int 0; dst = Node_id.of_int 0; size = 1;
    payload = Payload.Raw ""; sent_at = Engine.Time.zero }
