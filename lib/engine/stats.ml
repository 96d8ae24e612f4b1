module Online = struct
  (* All fields are floats, count included, so the record is stored
     flat: [add] rewrites fields in place and allocates nothing.  The
     count stays exact as a float up to 2^53 samples. *)
  type t = {
    mutable n : float;
    mutable mean : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
    mutable total : float;
  }

  let create () = { n = 0.; mean = 0.; m2 = 0.; mn = nan; mx = nan; total = 0. }

  let add t x =
    t.n <- t.n +. 1.;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if t.n = 1. then begin
      t.mn <- x;
      t.mx <- x
    end
    else begin
      if x < t.mn then t.mn <- x;
      if x > t.mx then t.mx <- x
    end

  let count t = int_of_float t.n
  let mean t = if t.n = 0. then nan else t.mean
  let variance t = if t.n < 2. then 0. else t.m2 /. (t.n -. 1.)
  let stddev t = Float.sqrt (variance t)
  let min t = t.mn
  let max t = t.mx
  let sum t = t.total

  let merge a b =
    if a.n = 0. then { b with n = b.n }
    else if b.n = 0. then { a with n = a.n }
    else begin
      let n = a.n +. b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. b.n /. n) in
      let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
      {
        n;
        mean;
        m2;
        mn = Stdlib.min a.mn b.mn;
        mx = Stdlib.max a.mx b.mx;
        total = a.total +. b.total;
      }
    end

  let pp fmt t =
    if t.n = 0. then Format.fprintf fmt "(no samples)"
    else
      Format.fprintf fmt "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" (count t)
        (mean t) (stddev t) t.mn t.mx
end

module Sketch = struct
  (* A fixed-bin mergeable histogram over [\[lo, hi)], with side counts
     for samples outside the range and exact min/max/sum tracking.  The
     state is a function of the multiset of samples alone (bin counts
     are order-independent), so two sketches fed the same samples in
     any order are structurally equal, and [merge] — plain count
     addition — is associative and commutative.  O(bins) memory
     regardless of stream length.

     The running extremes and sum live in their own all-float record,
     stored flat like {!Online.t}: [add] rewrites them in place and
     allocates nothing, where a float field of the mixed record would
     box a fresh float on every write. *)
  type extremes = {
    mutable mn : float;
    mutable mx : float;
    mutable sum : float;
  }

  type t = {
    lo : float;
    width : float;
    counts : int array;
    mutable underflow : int;  (* samples below [lo] *)
    mutable overflow : int;  (* samples at or above [hi] *)
    mutable total : int;
    ext : extremes;
  }

  let create ?(bins = 512) ~lo ~hi () =
    if bins < 1 then invalid_arg "Sketch.create: bins must be positive";
    if not (Float.is_finite lo && Float.is_finite hi) || hi <= lo then
      invalid_arg "Sketch.create: need finite lo < hi";
    {
      lo;
      width = (hi -. lo) /. float_of_int bins;
      counts = Array.make bins 0;
      underflow = 0;
      overflow = 0;
      total = 0;
      ext = { mn = nan; mx = nan; sum = 0. };
    }

  let bins t = Array.length t.counts
  let range t = (t.lo, t.lo +. (t.width *. float_of_int (bins t)))
  let count t = t.total
  let min t = t.ext.mn
  let max t = t.ext.mx
  let mean t = if t.total = 0 then nan else t.ext.sum /. float_of_int t.total

  let[@inline] add t x =
    if not (Float.is_finite x) then invalid_arg "Sketch.add: non-finite sample";
    t.total <- t.total + 1;
    let e = t.ext in
    e.sum <- e.sum +. x;
    if t.total = 1 then begin
      e.mn <- x;
      e.mx <- x
    end
    else begin
      if x < e.mn then e.mn <- x;
      if x > e.mx then e.mx <- x
    end;
    let b = int_of_float (Float.floor ((x -. t.lo) /. t.width)) in
    if b < 0 then t.underflow <- t.underflow + 1
    else if b >= Array.length t.counts then t.overflow <- t.overflow + 1
    else t.counts.(b) <- t.counts.(b) + 1

  (* The conversion happens here, next to [add], so that the caller
     hands over an int and no float is boxed. *)
  let add_ns t ns = add t (float_of_int ns *. 1e-9)

  let compatible a b =
    Float.equal a.lo b.lo && Float.equal a.width b.width && bins a = bins b

  let merge a b =
    if not (compatible a b) then
      invalid_arg "Sketch.merge: sketches have different bin layouts";
    {
      lo = a.lo;
      width = a.width;
      counts = Array.init (bins a) (fun i -> a.counts.(i) + b.counts.(i));
      underflow = a.underflow + b.underflow;
      overflow = a.overflow + b.overflow;
      total = a.total + b.total;
      ext =
        {
          mn =
            (if a.total = 0 then b.ext.mn
             else if b.total = 0 then a.ext.mn
             else Stdlib.min a.ext.mn b.ext.mn);
          mx =
            (if a.total = 0 then b.ext.mx
             else if b.total = 0 then a.ext.mx
             else Stdlib.max a.ext.mx b.ext.mx);
          sum = a.ext.sum +. b.ext.sum;
        };
    }

  (* Float addition is not associative, so a sum accumulated shard by
     shard and re-added by [merge] can differ in the last ulp from the
     same samples summed in one stream — enough to break byte-identical
     digests across shard counts.  Sharded runs therefore accumulate
     exact integer tallies on the side and install the derived float
     sum here after merging. *)
  let set_sum t sum =
    if not (Float.is_finite sum) then
      invalid_arg "Sketch.set_sum: non-finite sum";
    t.ext.sum <- sum

  (* Smallest x with (estimated) fraction-below >= q — the same
     convention as {!Cdf.quantile}, with linear interpolation inside
     the bin holding the target rank.  Results are clamped to the exact
     observed [min, max]. *)
  let quantile t q =
    if t.total = 0 then invalid_arg "Sketch.quantile: empty sketch";
    if not (Float.is_finite q) || q < 0. || q > 1. then
      invalid_arg "Sketch.quantile: q must be in [0, 1]";
    let k =
      Stdlib.max 1
        (int_of_float (Float.ceil (q *. float_of_int t.total)))
    in
    if k <= t.underflow then t.ext.mn
    else begin
      let clamp x = Float.min t.ext.mx (Float.max t.ext.mn x) in
      let cum = ref t.underflow in
      let result = ref nan in
      let i = ref 0 in
      let n = Array.length t.counts in
      while Float.is_nan !result && !i < n do
        let c = t.counts.(!i) in
        if c > 0 && k <= !cum + c then
          result :=
            clamp
              (t.lo
              +. (t.width *. float_of_int !i)
              +. (t.width *. float_of_int (k - !cum) /. float_of_int c))
        else begin
          cum := !cum + c;
          incr i
        end
      done;
      if Float.is_nan !result then t.ext.mx else !result
    end

  (* The total-function face of [quantile]: an empty sketch is a
     normal state for a run that completed nothing (an all-refused
     admission sweep, a churn storm), not a programming error. *)
  let quantile_opt t q = if t.total = 0 then None else Some (quantile t q)

  (* Step points for plotting: one per non-empty bin at its upper edge
     (clamped to the observed extremes), preceded by the minimum when
     samples fell below [lo] and closed at [(max, 1.)]. *)
  let cdf_points t =
    if t.total = 0 then []
    else begin
      let nf = float_of_int t.total in
      let acc = ref [] in
      (* Build right to left so the list comes out ascending; [above]
         counts the samples in bins strictly after [i], so the fraction
         at bin [i]'s upper edge is (total - overflow - above) / n. *)
      let above = ref 0 in
      for i = Array.length t.counts - 1 downto 0 do
        let c = t.counts.(i) in
        if c > 0 then begin
          let edge =
            Float.min t.ext.mx
              (Float.max t.ext.mn (t.lo +. (t.width *. float_of_int (i + 1))))
          in
          acc :=
            (edge, float_of_int (t.total - t.overflow - !above) /. nf) :: !acc
        end;
        above := !above + c
      done;
      let points =
        if t.underflow > 0 then
          (t.ext.mn, float_of_int t.underflow /. nf) :: !acc
        else !acc
      in
      match List.rev points with
      | (_, f) :: _ when f < 1. -> points @ [ (t.ext.mx, 1.) ]
      | [] -> [ (t.ext.mx, 1.) ]
      | _ -> points
    end
end

(* Rank interpolation over an already-sorted array — the one
   implementation behind both the array helpers and {!Samples}. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if not (Float.is_finite p) || p < 0. || p > 100. then
    invalid_arg "Stats.percentile: p must be in [0, 100]";
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

let cdf_points_sorted sorted =
  let n = Array.length sorted in
  if n = 0 then []
  else begin
    let nf = float_of_int n in
    (* One step per distinct value, at the fraction of samples <= it. *)
    let rec go i acc =
      if i < 0 then acc
      else if i < n - 1 && Float.equal sorted.(i) sorted.(i + 1) then go (i - 1) acc
      else go (i - 1) ((sorted.(i), float_of_int (i + 1) /. nf) :: acc)
    in
    go (n - 1) []
  end

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty array";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted sorted p

let median xs = percentile xs 50.

let cdf_points xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  cdf_points_sorted sorted

module Samples = struct
  type mode = Exact | Bounded of { bins : int; lo : float; hi : float }

  type t = {
    mutable data : float array;
    mutable len : int;
    (* Cached ascending copy of [data.(0..len-1)]; rebuilt at most once
       per burst of queries and dropped by the next [add], so repeated
       percentile reads stop re-sorting the whole sample set. *)
    mutable sorted : float array option;
    (* [Some sk] in bounded mode: samples feed the sketch and are NOT
       retained; [data]/[len]/[sorted] stay untouched at their initial
       values, so the default exact mode is byte-identical to the
       sketch-free implementation. *)
    sketch : Sketch.t option;
  }

  let create ?(capacity = 64) ?(mode = Exact) () =
    if capacity < 1 then invalid_arg "Samples.create: capacity must be positive";
    let sketch =
      match mode with
      | Exact -> None
      | Bounded { bins; lo; hi } -> Some (Sketch.create ~bins ~lo ~hi ())
    in
    { data = Array.make capacity 0.; len = 0; sorted = None; sketch }

  let length t =
    match t.sketch with Some sk -> Sketch.count sk | None -> t.len

  let is_empty t = length t = 0

  let add t x =
    match t.sketch with
    | Some sk -> Sketch.add sk x
    | None ->
        if t.len = Array.length t.data then begin
          let ndata = Array.make (2 * t.len) 0. in
          Array.blit t.data 0 ndata 0 t.len;
          t.data <- ndata
        end;
        t.data.(t.len) <- x;
        t.len <- t.len + 1;
        t.sorted <- None

  let retained name t =
    match t.sketch with
    | Some _ ->
        invalid_arg
          (Printf.sprintf "Samples.%s: samples are not retained in bounded mode"
             name)
    | None -> ()

  let to_array t =
    retained "to_array" t;
    Array.sub t.data 0 t.len

  let sorted_exn t =
    match t.sorted with
    | Some s -> s
    | None ->
        let s = Array.sub t.data 0 t.len in
        Array.sort Float.compare s;
        t.sorted <- Some s;
        s

  let sorted t =
    retained "sorted" t;
    sorted_exn t

  let percentile t p =
    match t.sketch with
    | Some sk ->
        if not (Float.is_finite p) || p < 0. || p > 100. then
          invalid_arg "Stats.percentile: p must be in [0, 100]";
        Sketch.quantile sk (p /. 100.)
    | None -> percentile_sorted (sorted_exn t) p

  let median t = percentile t 50.

  let min t =
    match t.sketch with
    | Some sk -> Sketch.min sk
    | None -> if t.len = 0 then nan else (sorted_exn t).(0)

  let max t =
    match t.sketch with
    | Some sk -> Sketch.max sk
    | None -> if t.len = 0 then nan else (sorted_exn t).(t.len - 1)

  let mean t =
    match t.sketch with
    | Some sk -> Sketch.mean sk
    | None ->
        if t.len = 0 then nan
        else begin
          let acc = ref 0. in
          for i = 0 to t.len - 1 do
            acc := !acc +. t.data.(i)
          done;
          !acc /. float_of_int t.len
        end

  let cdf_points t =
    match t.sketch with
    | Some sk -> Sketch.cdf_points sk
    | None -> cdf_points_sorted (sorted_exn t)
end
