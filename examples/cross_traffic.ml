(* Sharing a relay with unresponsive background traffic.

   The paper wants Tor traffic to "behave much like background
   traffic".  Here a CBR flow eats a configurable slice of the
   bottleneck relay's uplink, and a CircuitStart circuit has to live
   with the rest: a delay-based transport should settle onto the
   residual capacity rather than fight.

   Run with:  dune exec examples/cross_traffic.exe *)

let () =
  let t =
    Analysis.Table.create
      ~columns:[ "CBR load"; "fair target [cells]"; "settled [cells]"; "ttlb" ]
  in
  List.iter
    (fun load ->
      let r =
        Workload.Contention_experiment.run
          { Workload.Contention_experiment.cbr_load = load;
            transfer_bytes = Engine.Units.mib 2 }
      in
      Analysis.Table.add_row t
        [
          Printf.sprintf "%.0f%%" (load *. 100.);
          Printf.sprintf "%.0f" r.expected_cells;
          Printf.sprintf "%.0f" r.settled_cells;
          (match r.time_to_last_byte with
          | Some x -> Printf.sprintf "%.3fs" (Engine.Time.to_sec_f x)
          | None -> "incomplete");
        ])
    [ 0.; 0.2; 0.4; 0.6 ];
  print_string (Analysis.Table.render t);
  print_endline "settled ~ fair target: the circuit takes the leftover, not the link."
