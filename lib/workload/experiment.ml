type 'r paired = { circuit_start : 'r; slow_start : 'r; predictive : 'r }

let label = function
  | Circuitstart.Controller.Circuit_start -> "circuitstart"
  | Circuitstart.Controller.Slow_start -> "slowstart"
  | Circuitstart.Controller.Predictive -> "predictive"
  | Circuitstart.Controller.Fixed n -> Printf.sprintf "fixed:%d" n

let labelled p =
  [
    (label Circuitstart.Controller.Circuit_start, p.circuit_start);
    (label Circuitstart.Controller.Slow_start, p.slow_start);
    (label Circuitstart.Controller.Predictive, p.predictive);
  ]

module type S = sig
  type config
  type result

  val validate_config : config -> (config, string) Stdlib.result
  val with_strategy : Circuitstart.Controller.strategy -> config -> config
  val run_many : ?jobs:int -> (int * config) list -> result list
end

let compare (type c r) (module X : S with type config = c and type result = r)
    ?jobs ?(seed = 42) config =
  match
    X.run_many ?jobs
      (List.map
         (fun strategy -> (seed, X.with_strategy strategy config))
         Circuitstart.Controller.[ Circuit_start; Slow_start; Predictive ])
  with
  | [ circuit_start; slow_start; predictive ] ->
      { circuit_start; slow_start; predictive }
  | _ -> assert false
