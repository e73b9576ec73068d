(* Deterministic mergeable quantile sketch for step-valued observations.

   HDR-histogram-style log-linear buckets: values 0..15 are exact; a
   value v ≥ 16 lands in one of 16 linear sub-buckets of its power-of-two
   range [2^k, 2^(k+1)), so any reported quantile is an upper bound with
   relative error ≤ 1/16 (6.25%). The layout is fixed (no seeds, no
   adaptive compaction), so observation order never matters and merging
   is exact element-wise addition — a merged sketch is byte-identical to
   one that observed both streams in any order, which is what
   [Collector.merge]'s canonical-order fan-out contract needs. *)

let sub_bits = 4
let subs = 1 lsl sub_bits (* 16 linear sub-buckets per power of two *)

(* Exponents 4..61 cover every OCaml int the simulator can produce. *)
let n_buckets = subs + ((61 - sub_bits + 1) * subs)

type t = {
  mutable count : int;
  mutable sum : int;
  mutable max : int;
  buckets : int array;
}

let create () = { count = 0; sum = 0; max = 0; buckets = Array.make n_buckets 0 }

let log2 v =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let bucket_of v =
  if v < subs then v
  else begin
    let k = log2 v in
    subs + ((k - sub_bits) * subs) + ((v lsr (k - sub_bits)) - subs)
  end

(* Largest value mapping to bucket [i] — the bound a quantile reports. *)
let bucket_hi i =
  if i < subs then i
  else begin
    let k = sub_bits + ((i - subs) / subs) in
    let sub = (i - subs) mod subs in
    ((subs + sub + 1) lsl (k - sub_bits)) - 1
  end

let observe t v =
  let v = max v 0 in
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v > t.max then t.max <- v;
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1

let count t = t.count
let max_value t = t.max

let mean t =
  if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

(* Smallest bucket upper bound covering at least ⌈q·count⌉ observations,
   clamped to the observed maximum. Exact for values < 16, within 1/16
   relative error above. *)
let quantile t q =
  if t.count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int t.count)) in
      min t.count (max 1 r)
    in
    let acc = ref 0 in
    let result = ref t.max in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + t.buckets.(i);
         if !acc >= rank then begin
           result := bucket_hi i;
           raise Exit
         end
       done
     with Exit -> ());
    min !result t.max
  end

let p50 t = quantile t 0.5
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

(* Element-wise sum: exactly associative and commutative, so any merge
   tree over the same multiset of observations yields the same sketch. *)
let merge a b =
  {
    count = a.count + b.count;
    sum = a.sum + b.sum;
    max = max a.max b.max;
    buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
  }

let equal a b =
  a.count = b.count && a.sum = b.sum && a.max = b.max
  && Array.for_all2 ( = ) a.buckets b.buckets

let to_json t =
  Json.Obj
    [
      "count", Json.Int t.count;
      "max", Json.Int t.max;
      "mean", Json.Float (mean t);
      "p50", Json.Int (p50 t);
      "p99", Json.Int (p99 t);
      "p999", Json.Int (p999 t);
    ]

let summary_json t =
  Json.Obj
    [
      "count", Json.Int t.count;
      "p50", Json.Int (p50 t);
      "p99", Json.Int (p99 t);
      "p999", Json.Int (p999 t);
      "max", Json.Int t.max;
    ]

let pp fmt t =
  if t.count = 0 then Fmt.string fmt "no observations"
  else
    Fmt.pf fmt "n=%d p50≤%d p99≤%d p999≤%d max=%d" t.count (p50 t) (p99 t)
      (p999 t) t.max
