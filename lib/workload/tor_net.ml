type leaf = {
  node : Netsim.Node_id.t;
  spec : Optmodel.Path_model.node_spec;
  relay : Relay_gen.spec option;
}

type builder = {
  topo : Netsim.Topology.t;
  hub : Netsim.Node_id.t;
  queue : Netsim.Nqueue.capacity;
  (* Newest first; [finalize] reverses them into declaration order. *)
  mutable leaves : leaf list;
  mutable finalized : bool;
}

(* The machinery of one leaf. *)
type station = {
  sb : Tor_model.Switchboard.t;
  bt : Backtap.Node.t;
  ctl : Tor_model.Relay_ctl.t;
  spec : Optmodel.Path_model.node_spec;
}

type t = {
  net : Netsim.Network.t;
  b_hub : Netsim.Node_id.t;
  dir : Tor_model.Directory.t;
  (* Indexed by node id; [None] for the hub. *)
  stations : station option array;
  ids : Tor_model.Circuit_id.gen;
}

let builder sim ?(hub_name = "hub") ?(queue = Netsim.Nqueue.unbounded) () =
  let topo = Netsim.Topology.create sim in
  let hub = Netsim.Topology.add_node topo ~name:hub_name in
  { topo; hub; queue; leaves = []; finalized = false }

let add_leaf b ~name ~rate ~delay relay =
  if b.finalized then invalid_arg "Tor_net: builder already finalized";
  let node = Netsim.Topology.add_node b.topo ~name in
  Netsim.Topology.connect b.topo node b.hub ~rate ~delay ~queue:b.queue ();
  b.leaves <-
    { node; spec = { Optmodel.Path_model.rate; access_delay = delay }; relay } :: b.leaves;
  node

let add_relay b (spec : Relay_gen.spec) =
  ignore
    (add_leaf b ~name:spec.nickname ~rate:spec.bandwidth ~delay:spec.latency (Some spec)
      : Netsim.Node_id.t)

let add_endpoint b ~name ~rate ~delay = add_leaf b ~name ~rate ~delay None

let finalize b =
  if b.finalized then invalid_arg "Tor_net.finalize: builder already finalized";
  b.finalized <- true;
  let net = Netsim.Network.create b.topo in
  let dir = Tor_model.Directory.create () in
  let stations = Array.make (Netsim.Topology.node_count b.topo) None in
  (* In declaration order: relay draws depend on the directory's. *)
  List.iter
    (fun leaf ->
      let sb = Tor_model.Switchboard.install net leaf.node in
      let bt = Backtap.Node.install sb in
      let ctl = Tor_model.Relay_ctl.create sb in
      (match leaf.relay with
      | Some (r : Relay_gen.spec) ->
          Tor_model.Directory.add dir
            (Tor_model.Relay_info.make ~nickname:r.nickname ~node:leaf.node
               ~bandwidth:r.bandwidth ~latency:r.latency ~flags:r.flags ())
      | None -> ());
      stations.(Netsim.Node_id.to_int leaf.node) <- Some { sb; bt; ctl; spec = leaf.spec })
    (List.rev b.leaves);
  { net; b_hub = b.hub; dir; stations; ids = Tor_model.Circuit_id.generator () }

let network t = t.net
let directory t = t.dir
let hub t = t.b_hub

let station t node =
  let i = Netsim.Node_id.to_int node in
  if i >= Array.length t.stations then raise Not_found;
  match t.stations.(i) with Some s -> s | None -> raise Not_found

let switchboard t node = (station t node).sb
let backtap_node t node = (station t node).bt
let relay_ctl t node = (station t node).ctl
let access_spec t node = (station t node).spec

let path_model t circuit =
  Optmodel.Path_model.of_specs
    (List.map (access_spec t) (Tor_model.Circuit.nodes circuit))

let circuit_ids t = t.ids
