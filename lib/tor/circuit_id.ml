type t = int

let of_int i =
  if i < 0 then invalid_arg "Circuit_id.of_int: negative id";
  i

let to_int t = t
let compare = Int.compare
let pp fmt t = Format.fprintf fmt "c%d" t

module Map = Map.Make (Int)

type gen = int ref

let generator () = ref 0

let next g =
  let id = !g in
  incr g;
  id
