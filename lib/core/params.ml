type compensation = Rate_based | Acked_count

type t = {
  initial_cwnd : int;
  min_cwnd : int;
  max_cwnd : int;
  gamma : float;
  alpha : float;
  beta : float;
  compensation : compensation;
  adaptive : bool;
  re_probe_after : int;
  horizon : int;
  cost_queue : float;
  cost_under : float;
}

let default =
  {
    initial_cwnd = 2;
    min_cwnd = 2;
    max_cwnd = 65536;
    gamma = 4.;
    alpha = 2.;
    beta = 4.;
    compensation = Rate_based;
    adaptive = false;
    re_probe_after = 8;
    horizon = 8;
    cost_queue = 1.;
    cost_under = 4.;
  }

let validate t =
  if t.min_cwnd < 1 then Error "min_cwnd must be at least 1"
  else if t.initial_cwnd < t.min_cwnd then Error "initial_cwnd below min_cwnd"
  else if t.max_cwnd < t.initial_cwnd then Error "max_cwnd below initial_cwnd"
  else if not (Float.is_finite t.gamma) || t.gamma <= 0. then
    Error "gamma must be positive"
  else if not (Float.is_finite t.alpha) || t.alpha < 0. then
    Error "alpha must be non-negative"
  else if not (Float.is_finite t.beta) || t.beta < t.alpha then
    Error "beta must be at least alpha"
  else if t.re_probe_after < 1 then Error "re_probe_after must be positive"
  else if t.horizon < 1 then Error "horizon must be positive"
  else if not (Float.is_finite t.cost_queue) || t.cost_queue <= 0. then
    Error "cost_queue must be positive"
  else if not (Float.is_finite t.cost_under) || t.cost_under <= 0. then
    Error "cost_under must be positive"
  else Ok t

let with_gamma t gamma = { t with gamma }
