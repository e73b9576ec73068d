(* Deterministic mergeable quantile sketch for step-valued observations.

   HDR-histogram-style log-linear buckets: values 0..15 are exact; a
   value v ≥ 16 lands in one of 16 linear sub-buckets of its power-of-two
   range [2^k, 2^(k+1)), so any reported quantile is an upper bound with
   relative error ≤ 1/16 (6.25%). The layout is fixed (no seeds, no
   adaptive compaction), so observation order never matters and merging
   is exact element-wise addition — a merged sketch is byte-identical to
   one that observed both streams in any order, which is what
   [Collector.merge]'s canonical-order fan-out contract needs.

   The bucket array holds only the prefix up to the highest bucket
   observed so far, grown by doubling: a collector keeps one sketch per
   layer, and most of them only ever see small values. Buckets past the
   end of the array read as zero. *)

let sub_bits = 4
let subs = 1 lsl sub_bits (* 16 linear sub-buckets per power of two *)

(* Exponents 4..61 cover every OCaml int the simulator can produce. *)
let n_buckets = subs + ((61 - sub_bits + 1) * subs)

type t = {
  mutable count : int;
  mutable sum : int;
  mutable max : int;
  mutable buckets : int array;  (* prefix of the n_buckets layout *)
}

let create () = { count = 0; sum = 0; max = 0; buckets = [||] }

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

let get buckets i = if i < Array.length buckets then buckets.(i) else 0

let grow t b =
  let len = Array.length t.buckets in
  let buckets = Array.make (Int.min n_buckets (Int.max (2 * len) (b + 1))) 0 in
  Array.blit t.buckets 0 buckets 0 len;
  t.buckets <- buckets

(* [bucket_of] of every value below [small], read instead of computed:
   span latencies and abort streaks almost always are, and [bucket_of]
   runs a log₂ loop, most of an observation's cost. *)
let small = 1024
let small_buckets = Array.init small bucket_of

let observe t v =
  let v = Int.max v 0 in
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v > t.max then t.max <- v;
  let b = if v < small then small_buckets.(v) else bucket_of v in
  if b >= Array.length t.buckets then grow t b;
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
      Int.min t.count (Int.max 1 r)
    in
    let acc = ref 0 in
    let result = ref t.max in
    (try
       for i = 0 to Array.length t.buckets - 1 do
         acc := !acc + t.buckets.(i);
         if !acc >= rank then begin
           result := bucket_hi i;
           raise Exit
         end
       done
     with Exit -> ());
    Int.min !result t.max
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
    max = Int.max a.max b.max;
    buckets =
      Array.init
        (Int.max (Array.length a.buckets) (Array.length b.buckets))
        (fun i -> get a.buckets i + get b.buckets i);
  }

(* Array lengths are a sizing detail: sketches of the same multiset are
   equal however their arrays grew. *)
let equal a b =
  a.count = b.count && a.sum = b.sum && a.max = b.max
  &&
  let len = Int.max (Array.length a.buckets) (Array.length b.buckets) in
  let rec same i = i = len || (get a.buckets i = get b.buckets i && same (i + 1)) in
  same 0

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

(* --- log₂ rendering ---------------------------------------------------------

   The v1 snapshot's latency and abort-streak fields and the human
   summary print a coarser log₂ histogram: bucket 0 holds 0, bucket j ≥ 1
   holds [2^(j-1), 2^j - 1], and bucket 31 everything from 2^30 up. Each
   sketch bucket lies inside one log₂ bucket, so folding the sketch
   reproduces that histogram's counts, sum, max, mean and bounds exactly. *)

let log2_buckets = 32

let log2_bucket_of_sketch i =
  if i = 0 then 0
  else if i < subs then log2 i + 1
  else Int.min (log2_buckets - 1) (sub_bits + ((i - subs) / subs) + 1)

let fold_log2 t =
  let folded = Array.make log2_buckets 0 in
  Array.iteri
    (fun i n ->
      let j = log2_bucket_of_sketch i in
      folded.(j) <- folded.(j) + n)
    t.buckets;
  folded

(* Smallest log₂ bucket upper bound covering more than ⌊q·count⌋
   observations, clamped to the observed maximum — exact to within a
   power of two. *)
let log2_bound t folded q =
  if t.count = 0 then 0
  else begin
    let target = int_of_float (Float.of_int t.count *. q) in
    let rec go i acc =
      if i = log2_buckets then t.max
      else
        let acc = acc + folded.(i) in
        if acc > target then if i = 0 then 0 else (1 lsl i) - 1
        else go (i + 1) acc
    in
    Int.min (go 0 0) t.max
  end

let log2_json t =
  let folded = fold_log2 t in
  let buckets =
    Array.to_list folded
    |> List.mapi (fun j n -> j, n)
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (j, n) ->
           let lo = if j = 0 then 0 else 1 lsl (j - 1) in
           Json.Obj [ "lo", Json.Int lo; "n", Json.Int n ])
  in
  Json.Obj
    [
      "count", Json.Int t.count;
      "sum", Json.Int t.sum;
      "max", Json.Int t.max;
      "mean", Json.Float (mean t);
      "p50", Json.Int (log2_bound t folded 0.5);
      "p99", Json.Int (log2_bound t folded 0.99);
      "buckets", Json.Arr buckets;
    ]

let pp_log2 fmt t =
  if t.count = 0 then Fmt.string fmt "no observations"
  else begin
    let folded = fold_log2 t in
    Fmt.pf fmt "n=%d mean=%.1f p50≤%d p99≤%d max=%d" t.count (mean t)
      (log2_bound t folded 0.5) (log2_bound t folded 0.99) t.max
  end
