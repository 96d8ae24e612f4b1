type flow = {
  tx_packets : int;
  tx_bytes : int;
  rx_packets : int;
  rx_bytes : int;
  first_tx : Engine.Time.t option;
  last_rx : Engine.Time.t option;
}

(* Internal accumulator: one allocation per flow, mutated in place on
   every packet — [on_tx]/[on_rx] sit on the forwarding hot path and
   used to allocate a fresh record (plus an update closure) per cell. *)
type acc = {
  mutable a_tx_packets : int;
  mutable a_tx_bytes : int;
  mutable a_rx_packets : int;
  mutable a_rx_bytes : int;
  mutable a_first_tx : Engine.Time.t option;
  mutable a_last_rx : Engine.Time.t option;
}

type t = (int, acc) Hashtbl.t

let create () : t = Hashtbl.create 32

let acc_of t flow =
  match Hashtbl.find_opt t flow with
  | Some a -> a
  | None ->
      let a =
        { a_tx_packets = 0; a_tx_bytes = 0; a_rx_packets = 0; a_rx_bytes = 0;
          a_first_tx = None; a_last_rx = None }
      in
      Hashtbl.add t flow a;
      a

let on_tx t ~flow ~bytes ~now =
  let a = acc_of t flow in
  a.a_tx_packets <- a.a_tx_packets + 1;
  a.a_tx_bytes <- a.a_tx_bytes + bytes;
  if a.a_first_tx = None then a.a_first_tx <- Some now

let on_rx t ~flow ~bytes ~now =
  let a = acc_of t flow in
  a.a_rx_packets <- a.a_rx_packets + 1;
  a.a_rx_bytes <- a.a_rx_bytes + bytes;
  a.a_last_rx <- Some now

let snapshot a =
  { tx_packets = a.a_tx_packets; tx_bytes = a.a_tx_bytes;
    rx_packets = a.a_rx_packets; rx_bytes = a.a_rx_bytes;
    first_tx = a.a_first_tx; last_rx = a.a_last_rx }

let stats t ~flow = Option.map snapshot (Hashtbl.find_opt t flow)

let time_to_last_byte t ~flow =
  match Hashtbl.find_opt t flow with
  | Some { a_first_tx = Some a; a_last_rx = Some b; _ } -> Some (Engine.Time.diff b a)
  | _ -> None

let flows t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort Int.compare
let total_rx_bytes t = Hashtbl.fold (fun _ a acc -> acc + a.a_rx_bytes) t 0

let link_drops links =
  Array.fold_left
    (fun acc l -> Link.add_drop_counts acc (Link.drop_counts l))
    Link.no_drops links
