type 'r paired = { circuit_start : 'r; slow_start : 'r; predictive : 'r }

let label = function
  | Circuitstart.Controller.Circuit_start -> "circuitstart"
  | Circuitstart.Controller.Slow_start -> "slowstart"
  | Circuitstart.Controller.Predictive -> "predictive"
  | Circuitstart.Controller.Fixed n -> Printf.sprintf "fixed:%d" n

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "circuitstart" | "cs" -> Ok Circuitstart.Controller.Circuit_start
  | "slowstart" | "ss" -> Ok Circuitstart.Controller.Slow_start
  | "predictive" | "pr" -> Ok Circuitstart.Controller.Predictive
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "fixed" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some n when n > 0 -> Ok (Circuitstart.Controller.Fixed n)
          | _ -> Error "fixed:<n> needs a positive integer")
      | _ ->
          Error
            (Printf.sprintf
               "unknown strategy %S (expected circuitstart, slowstart, \
                predictive or fixed:N)"
               s))

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
