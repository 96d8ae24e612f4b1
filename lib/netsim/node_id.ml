type t = int

let of_int i =
  if i < 0 then invalid_arg "Node_id.of_int: negative id";
  i

let to_int t = t
let equal = Int.equal
let pp fmt t = Format.fprintf fmt "n%d" t

module Map = Map.Make (Int)
module Set = Set.Make (Int)
