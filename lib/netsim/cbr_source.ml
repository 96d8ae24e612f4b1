type Payload.t += Cbr of int  (** Sequence number, for diagnostics. *)

type t = {
  net : Network.t;
  src : Node_id.t;
  dst : Node_id.t;
  packet_size : int;
  rate : Engine.Units.Rate.t;
  mutable sent : int;
  (* One reusable timer rearmed per packet: the steady-state source
     allocates nothing per packet beyond the packet itself. *)
  mutable tick : Engine.Sim.Timer.t;
}

let interval t =
  (* One packet per serialization time at the nominal rate = exactly
     [rate] on the wire. *)
  Engine.Units.Rate.transmission_time t.rate t.packet_size

let arm t = Engine.Sim.Timer.arm_after (Network.sim t.net) t.tick (interval t)

let emit t =
  let p =
    Network.make_packet t.net ~src:t.src ~dst:t.dst ~size:t.packet_size (Cbr t.sent)
  in
  t.sent <- t.sent + 1;
  Network.send t.net p;
  arm t

let start net ~src ~dst ~rate ?(packet_size = 512) () =
  if packet_size <= 0 then invalid_arg "Cbr_source.start: packet size must be positive";
  let t =
    { net; src; dst; packet_size; rate; sent = 0;
      tick = Engine.Sim.Timer.create (Network.sim net) (fun () -> ()) }
  in
  t.tick <- Engine.Sim.Timer.create (Network.sim net) (fun () -> emit t);
  arm t;
  t

let packets_sent t = t.sent
let bytes_sent t = t.sent * t.packet_size
