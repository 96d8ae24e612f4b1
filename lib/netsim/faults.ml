type loss_model =
  | Bernoulli of float
  | Gilbert_elliott of {
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_good : float;
      loss_bad : float;
    }

let is_prob p = Float.is_finite p && p >= 0. && p <= 1.

let validate_loss = function
  | Bernoulli p when not (is_prob p) ->
      Error "Bernoulli loss probability must be in [0, 1]"
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad }
    when not
           (is_prob p_good_to_bad && is_prob p_bad_to_good && is_prob loss_good
          && is_prob loss_bad) ->
      Error "Gilbert-Elliott parameters must all be in [0, 1]"
  | m -> Ok m

let expected_loss_rate = function
  | Bernoulli p -> p
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      (* Stationary distribution of the two-state chain; a chain that
         never transitions stays in its initial (good) state. *)
      let denom = p_good_to_bad +. p_bad_to_good in
      if denom = 0. then loss_good
      else
        let pi_bad = p_good_to_bad /. denom in
        ((1. -. pi_bad) *. loss_good) +. (pi_bad *. loss_bad)

type loss_state = { model : loss_model; mutable in_bad : bool }

let loss_state model =
  match validate_loss model with
  | Error msg -> invalid_arg ("Faults.loss_state: " ^ msg)
  | Ok model -> { model; in_bad = false }

(* One per-packet step: advance the channel state, then draw the loss
   from the state the packet sees.  Every coin is an [Rng.bernoulli],
   which keeps the uniform unboxed: a lossy link costs no allocation
   per packet. *)
let decide st rng =
  match st.model with
  | Bernoulli p -> Engine.Rng.bernoulli rng p
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      let leave = if st.in_bad then p_bad_to_good else p_good_to_bad in
      if Engine.Rng.bernoulli rng leave then st.in_bad <- not st.in_bad;
      Engine.Rng.bernoulli rng (if st.in_bad then loss_bad else loss_good)

let attach_loss ~rng link model =
  let st = loss_state model in
  Link.set_fault_filter link (Some (fun _p -> decide st rng))

let detach_loss link = Link.set_fault_filter link None

let link_subject link =
  Format.asprintf "link/%a->%a" Node_id.pp (Link.src link) Node_id.pp
    (Link.dst link)

let schedule_outage ?trace sim link ~down_at ~up_at =
  if Engine.Time.(up_at <= down_at) then
    invalid_arg "Faults.schedule_outage: up_at must be after down_at";
  ignore
    (Engine.Sim.schedule_at sim down_at (fun () ->
         Link.set_up link false;
         match trace with
         | Some registry ->
             Engine.Trace.record_event registry Engine.Trace.Fault
               ~subject:(link_subject link) ~detail:"outage begins"
               (Engine.Sim.now sim)
         | None -> ()));
  ignore
    (Engine.Sim.schedule_at sim up_at (fun () ->
         Link.set_up link true;
         match trace with
         | Some registry ->
             Engine.Trace.record_event registry Engine.Trace.Recovery
               ~subject:(link_subject link) ~detail:"outage ends"
               (Engine.Sim.now sim)
         | None -> ()))

let schedule_rates sim link steps =
  List.iter
    (fun (at, rate) ->
      ignore (Engine.Sim.schedule_at sim at (fun () -> Link.set_rate link rate)))
    steps
