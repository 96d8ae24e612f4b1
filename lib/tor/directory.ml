type t = { mutable relays : Relay_info.t list (* insertion order *) }

type selection = Bandwidth_weighted | Uniform

let selection_to_string = function
  | Bandwidth_weighted -> "bandwidth"
  | Uniform -> "uniform"

let selection_of_string s =
  match String.lowercase_ascii s with
  | "bandwidth" | "bw" | "weighted" -> Some Bandwidth_weighted
  | "uniform" | "random" -> Some Uniform
  | _ -> None

let create () = { relays = [] }

let add t r = t.relays <- t.relays @ [ r ]

let relays t = t.relays

(* --- path selection ------------------------------------------------ *)

let weighted_choice rng candidates =
  match candidates with
  | [] -> None
  | _ ->
      let arr =
        Array.of_list
          (List.map
             (fun (r : Relay_info.t) ->
               (r, float_of_int (Engine.Units.Rate.to_bps r.bandwidth)))
             candidates)
      in
      Some (Engine.Rng.pick_weighted rng arr)

let uniform_choice rng candidates =
  match candidates with
  | [] -> None
  | _ -> Some (Engine.Rng.pick rng (Array.of_list candidates))

let select_path t rng ?(selection = Bandwidth_weighted) ?(exclude = []) ~hops () =
  if hops < 1 then invalid_arg "Directory.select_path: need at least one hop";
  let choose =
    match selection with
    | Bandwidth_weighted -> weighted_choice
    | Uniform -> uniform_choice
  in
  let banned (r : Relay_info.t) =
    List.exists (Netsim.Node_id.equal r.node) exclude
  in
  let excluded chosen (r : Relay_info.t) =
    banned r
    || List.exists (fun (c : Relay_info.t) -> Netsim.Node_id.equal c.node r.node) chosen
  in
  let pick ~flag chosen =
    let ok (r : Relay_info.t) =
      (not (excluded chosen r))
      && match flag with None -> true | Some f -> Relay_info.has_flag r f
    in
    choose rng (List.filter ok t.relays)
  in
  (* Tor fills guard, then exit, then middles; we follow suit so flag
     scarcity (few exits) constrains the right position. *)
  let ( let* ) = Option.bind in
  if hops = 1 then
    let* only = pick ~flag:(Some Relay_info.Exit) [] in
    Some [ only ]
  else
    let* guard = pick ~flag:(Some Relay_info.Guard) [] in
    let* exit = pick ~flag:(Some Relay_info.Exit) [ guard ] in
    let rec middles n chosen acc =
      if n = 0 then Some (List.rev acc)
      else
        let* m = pick ~flag:None chosen in
        middles (n - 1) (m :: chosen) (m :: acc)
    in
    let* mids = middles (hops - 2) [ guard; exit ] [] in
    Some ((guard :: mids) @ [ exit ])
