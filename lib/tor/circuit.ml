type t = {
  id : Circuit_id.t;
  client : Netsim.Node_id.t;
  relays : Relay_info.t list;
  server : Netsim.Node_id.t;
}

let nodes t =
  (t.client :: List.map (fun (r : Relay_info.t) -> r.node) t.relays) @ [ t.server ]

let make ~id ~client ~relays ~server =
  if relays = [] then invalid_arg "Circuit.make: need at least one relay";
  let t = { id; client; relays; server } in
  let ns = nodes t in
  let distinct = Netsim.Node_id.Set.of_list ns in
  if Netsim.Node_id.Set.cardinal distinct <> List.length ns then
    invalid_arg "Circuit.make: duplicate node in path";
  t

let hop_count t = List.length (nodes t) - 1
let layer_count t = List.length t.relays

let successor t node =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if Netsim.Node_id.equal a node then Some b else go rest
    | [ _ ] | [] -> None
  in
  go (nodes t)

let predecessor t node =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if Netsim.Node_id.equal b node then Some a else go rest
    | [ _ ] | [] -> None
  in
  go (nodes t)

let pp fmt t =
  Format.fprintf fmt "%a: %a" Circuit_id.pp t.id
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " -> ")
       Netsim.Node_id.pp)
    (nodes t)
