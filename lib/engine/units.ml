let kib n = n * 1024
let mib n = n * 1024 * 1024

let pp_bytes fmt n =
  if n < 1024 then Format.fprintf fmt "%dB" n
  else if n < 1024 * 1024 then Format.fprintf fmt "%.1fKiB" (float_of_int n /. 1024.)
  else Format.fprintf fmt "%.1fMiB" (float_of_int n /. (1024. *. 1024.))

module Rate = struct
  type t = int (* bits per second, > 0 *)

  let bps n =
    if n <= 0 then invalid_arg "Rate.bps: rate must be positive";
    n

  let mbit n = bps (n * 1_000_000)

  let mbit_f x =
    if not (Float.is_finite x) || x <= 0. then
      invalid_arg "Rate.mbit_f: rate must be positive and finite";
    Stdlib.max 1 (int_of_float (x *. 1e6))

  let to_bps r = r
  let to_bytes_per_sec r = float_of_int r /. 8.

  (* Beyond this many bytes, [bytes * 8 * 1e9] overflows an int. *)
  let int_safe_bytes = max_int / 8_000_000_000

  let transmission_time r bytes =
    if bytes < 0 then invalid_arg "Rate.transmission_time: negative size";
    (* ceil (bytes * 8 * 1e9 / r) nanoseconds.  Sizes up to ~576 MB
       stay in int arithmetic and allocate nothing; larger transfers
       take int64, as before, so slow links do not overflow. *)
    if bytes <= int_safe_bytes then begin
      let num = bytes * 8_000_000_000 in
      let q = num / r in
      Time.ns (if num - (q * r) = 0 then q else q + 1)
    end
    else begin
      let num = Int64.mul (Int64.of_int bytes) 8_000_000_000L in
      let r64 = Int64.of_int r in
      let q = Int64.div num r64 in
      Time.of_ns64 (if Int64.equal (Int64.rem num r64) 0L then q else Int64.succ q)
    end
  let min a b = Stdlib.min a b
  let compare = Stdlib.compare
  let equal = Int.equal

  let scale r x =
    if not (Float.is_finite x) || x <= 0. then
      invalid_arg "Rate.scale: factor must be positive and finite";
    Stdlib.max 1 (int_of_float (float_of_int r *. x))

  let pp fmt r =
    if r < 1_000 then Format.fprintf fmt "%dbit/s" r
    else if r < 1_000_000 then Format.fprintf fmt "%.0fkbit/s" (float_of_int r /. 1e3)
    else Format.fprintf fmt "%.1fMbit/s" (float_of_int r /. 1e6)
end
