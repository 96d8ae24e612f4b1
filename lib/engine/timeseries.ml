type t = {
  name : string;
  mutable times : Time.t array;
  mutable values : float array;
  mutable len : int;
}

let create ?(name = "") () = { name; times = [||]; values = [||]; len = 0 }
let name t = t.name

let grow t =
  let cap = Array.length t.times in
  if t.len = cap then begin
    let ncap = Stdlib.max 32 (cap * 2) in
    let ntimes = Array.make ncap Time.zero and nvalues = Array.make ncap 0. in
    Array.blit t.times 0 ntimes 0 t.len;
    Array.blit t.values 0 nvalues 0 t.len;
    t.times <- ntimes;
    t.values <- nvalues
  end

let record t time v =
  if t.len > 0 && Time.(time < t.times.(t.len - 1)) then
    invalid_arg "Timeseries.record: time went backwards";
  grow t;
  t.times.(t.len) <- time;
  t.values.(t.len) <- v;
  t.len <- t.len + 1

let length t = t.len
let points t = Array.init t.len (fun i -> (t.times.(i), t.values.(i)))

(* Index of the latest point at or before [time], by binary search. *)
let index_at t time =
  if t.len = 0 || Time.(time < t.times.(0)) then None
  else begin
    let lo = ref 0 and hi = ref (t.len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if Time.(t.times.(mid) <= time) then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

let last t = if t.len = 0 then None else Some (t.times.(t.len - 1), t.values.(t.len - 1))

let resample t ~step ~stop =
  if Time.(step <= Time.zero) then invalid_arg "Timeseries.resample: step must be positive";
  if t.len = 0 then [||]
  else begin
    let samples = ref [] in
    let current = ref Time.zero in
    while Time.(!current <= stop) do
      let v = match index_at t !current with Some i -> t.values.(i) | None -> t.values.(0) in
      samples := (!current, v) :: !samples;
      current := Time.add !current step
    done;
    Array.of_list (List.rev !samples)
  end

let max_value t =
  if t.len = 0 then None
  else begin
    let best = ref t.values.(0) in
    for i = 1 to t.len - 1 do
      if t.values.(i) > !best then best := t.values.(i)
    done;
    Some !best
  end
