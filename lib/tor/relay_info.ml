type flag = Guard | Exit | Fast | Stable

type t = {
  nickname : string;
  node : Netsim.Node_id.t;
  bandwidth : Engine.Units.Rate.t;
  latency : Engine.Time.t;
  flags : flag list;
}

let make ~nickname ~node ~bandwidth ~latency ?(flags = [ Guard; Exit; Fast; Stable ]) () =
  { nickname; node; bandwidth; latency; flags }

let has_flag t f = List.mem f t.flags

let pp fmt t =
  Format.fprintf fmt "%s@%a %a %a" t.nickname Netsim.Node_id.pp t.node
    Engine.Units.Rate.pp t.bandwidth Engine.Time.pp t.latency
