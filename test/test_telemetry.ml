open Tbwf_sim
open Tbwf_core
open Tbwf_objects
open Tbwf_experiments
open Tbwf_telemetry
module System = Tbwf_system.System

(* --- Hist: the log₂ histogram as a reference model ------------------------

   Telemetry used to observe every latency into this log₂ histogram next
   to the Quantile sketch. The sketch is now the only histogram, and the
   v1 snapshot's log₂ fields are its folded rendering; this verbatim copy
   of the retired module is the oracle that rendering must match byte
   for byte. *)

module Hist = struct
  let n_buckets = 32

  type t = {
    mutable count : int;
    mutable sum : int;
    mutable max : int;
    buckets : int array;
  }

  let create () =
    { count = 0; sum = 0; max = 0; buckets = Array.make n_buckets 0 }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
      min (n_buckets - 1) (bits 0 v)
    end

  let bucket_lo i = if i = 0 then 0 else 1 lsl (i - 1)

  let observe t v =
    let v = max v 0 in
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v > t.max then t.max <- v;
    let b = bucket_of v in
    t.buckets.(b) <- t.buckets.(b) + 1

  let merge a b =
    {
      count = a.count + b.count;
      sum = a.sum + b.sum;
      max = max a.max b.max;
      buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
    }

  let mean t =
    if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

  let quantile_bound t q =
    if t.count = 0 then 0
    else begin
      let target = int_of_float (Float.of_int t.count *. q) in
      let acc = ref 0 in
      let result = ref t.max in
      (try
         for i = 0 to n_buckets - 1 do
           acc := !acc + t.buckets.(i);
           if !acc > target then begin
             result := (if i = 0 then 0 else (1 lsl i) - 1);
             raise Exit
           end
         done
       with Exit -> ());
      min !result t.max
    end

  let to_json t =
    let buckets =
      Array.to_list t.buckets
      |> List.mapi (fun i n -> i, n)
      |> List.filter (fun (_, n) -> n > 0)
      |> List.map (fun (i, n) ->
             Json.Obj [ "lo", Json.Int (bucket_lo i); "n", Json.Int n ])
    in
    Json.Obj
      [
        "count", Json.Int t.count;
        "sum", Json.Int t.sum;
        "max", Json.Int t.max;
        "mean", Json.Float (mean t);
        "p50", Json.Int (quantile_bound t 0.5);
        "p99", Json.Int (quantile_bound t 0.99);
        "buckets", Json.Arr buckets;
      ]

  let pp fmt t =
    if t.count = 0 then Fmt.string fmt "no observations"
    else
      Fmt.pf fmt "n=%d mean=%.1f p50≤%d p99≤%d max=%d" t.count (mean t)
        (quantile_bound t 0.5) (quantile_bound t 0.99) t.max
end

let hist_of values =
  let h = Hist.create () in
  List.iter (Hist.observe h) values;
  h

let sketch_of values =
  let q = Quantile.create () in
  List.iter (Quantile.observe q) values;
  q

(* The sketch's log₂ JSON and pp line, byte for byte, against the
   reference histogram's. *)
let log2_matches sketch hist =
  String.equal
    (Json.to_string (Quantile.log2_json sketch))
    (Json.to_string (Hist.to_json hist))
  && String.equal (Fmt.str "%a" Quantile.pp_log2 sketch) (Fmt.str "%a" Hist.pp hist)

let bucket_cases = [ 0, 0; 1, 1; 2, 2; 3, 2; 4, 3; 7, 3; 8, 4; 1023, 10; 1024, 11 ]

let test_hist_buckets () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Fmt.str "bucket_of %d" v) b (Hist.bucket_of v);
      Alcotest.(check bool)
        (Fmt.str "sketch of %d renders into bucket lo %d" v (Hist.bucket_lo b))
        true
        (log2_matches (sketch_of [ v ]) (hist_of [ v ])))
    bucket_cases;
  Alcotest.(check int) "bucket_lo 0" 0 (Hist.bucket_lo 0);
  Alcotest.(check int) "bucket_lo 1" 1 (Hist.bucket_lo 1);
  Alcotest.(check int) "bucket_lo 4" 8 (Hist.bucket_lo 4);
  let all = List.map fst bucket_cases in
  Alcotest.(check bool) "all cases in one stream" true
    (log2_matches (sketch_of all) (hist_of all))

let test_hist_stats () =
  let values = [ 0; 1; 1; 2; 4; 100 ] in
  let q = sketch_of values in
  let field name =
    match Quantile.log2_json q with
    | Json.Obj fields -> List.assoc name fields
    | _ -> Alcotest.fail "log2_json should be an object"
  in
  Alcotest.(check int) "count" 6 (Quantile.count q);
  Alcotest.(check (float 1e-9)) "mean" 18.0 (Quantile.mean q);
  Alcotest.(check bool) "p50 bound covers median" true
    (match field "p50" with Json.Int b -> b >= 1 | _ -> false);
  Alcotest.(check bool) "p99 bound is max" true (field "p99" = Json.Int 100);
  Alcotest.(check bool) "matches the reference" true
    (log2_matches q (hist_of values));
  Quantile.observe q (-5);
  Alcotest.(check int) "negative clamps to zero bucket" 7 (Quantile.count q);
  Alcotest.(check bool) "still matches the reference" true
    (log2_matches q (hist_of (-5 :: values)))

(* Observation streams that reach every region of both layouts: the
   exact 0..15 buckets, the log-linear middle, negatives (clamped to 0),
   and values at or past 2^30, where every log₂ observation shares the
   last bucket. *)
let observation =
  QCheck.(
    oneof
      [
        int_range 0 20;
        int_range 0 100_000;
        int_range (-1_000) (-1);
        int_range (1 lsl 30) max_int;
        oneofl (List.map fst bucket_cases);
      ])

let quantile_points = [ 0.0; 0.1; 0.5; 0.9; 0.99; 0.999; 1.0 ]

let qcheck_log2_rendering_matches_reference =
  QCheck.Test.make
    ~name:"log2 rendering and on-demand sizing match the reference models"
    ~count:300
    QCheck.(pair (small_list observation) (small_list observation))
    (fun (xs, ys) ->
      let a = sketch_of xs and b = sketch_of ys in
      let merged = Quantile.merge a b in
      let whole = sketch_of (xs @ ys) in
      log2_matches a (hist_of xs)
      && log2_matches b (hist_of ys)
      && log2_matches merged (Hist.merge (hist_of xs) (hist_of ys))
      && log2_matches whole (hist_of (xs @ ys))
      (* merged arrays are sized by the larger input, the whole-stream
         sketch by its own doubling: neither size may show *)
      && Quantile.equal merged whole
      && Quantile.equal whole merged
      && Quantile.equal (Quantile.merge a (Quantile.create ())) a
      && List.for_all
           (fun q -> Quantile.quantile merged q = Quantile.quantile whole q)
           quantile_points
      && String.equal
           (Json.to_string (Quantile.to_json merged))
           (Json.to_string (Quantile.to_json whole)))

(* Same count, sum and maximum, different buckets. *)
let test_quantile_equal_sees_buckets () =
  Alcotest.(check bool) "different multisets differ" false
    (Quantile.equal (sketch_of [ 1; 4; 4 ]) (sketch_of [ 2; 3; 4 ]));
  Alcotest.(check bool) "a small sketch differs from one grown past it" false
    (Quantile.equal (sketch_of [ 0; 0 ]) (sketch_of [ 0; 1 lsl 40 ]))

(* --- Series -------------------------------------------------------------- *)

let test_series_windows () =
  let s = Series.create ~window:10 ~n:2 () in
  Series.bump s ~pid:0 ~step:5;
  Series.bump s ~pid:0 ~step:15;
  Series.bump s ~pid:1 ~step:25;
  Series.bump s ~pid:9 ~step:25;
  (* out of range: ignored *)
  Alcotest.(check int) "windows" 3 (Series.windows s);
  Alcotest.(check (array int)) "row 0 (padded)" [| 1; 1; 0 |]
    (Series.row s ~pid:0);
  Alcotest.(check (array int)) "row 1 (lazy growth padded)" [| 0; 0; 1 |]
    (Series.row s ~pid:1);
  Alcotest.(check (array int)) "totals" [| 2; 1 |] (Series.totals s);
  Alcotest.(check (float 1e-9)) "mean per window" (2.0 /. 3.0)
    (Series.mean_per_window s ~pid:0)

let test_series_growth () =
  let s = Series.create ~window:2 ~n:1 () in
  for step = 0 to 999 do
    Series.bump s ~pid:0 ~step
  done;
  Alcotest.(check int) "windows after growth" 500 (Series.windows s);
  Alcotest.(check int) "total preserved" 1000 (Series.total s ~pid:0);
  Alcotest.(check bool) "every window holds 2" true
    (Array.for_all (fun c -> c = 2) (Series.row s ~pid:0))

(* --- Quantile ------------------------------------------------------------- *)

let test_quantile_exact_small () =
  let q = Quantile.create () in
  for v = 0 to 15 do
    Quantile.observe q v
  done;
  Alcotest.(check int) "count" 16 (Quantile.count q);
  Alcotest.(check int) "max" 15 (Quantile.max_value q);
  (* values 0..15 live in exact buckets: every quantile is exact *)
  Alcotest.(check int) "p50 exact" 7 (Quantile.quantile q 0.5);
  Alcotest.(check int) "p999 is max" 15 (Quantile.p999 q);
  Quantile.observe q (-3);
  Alcotest.(check int) "negative clamps to 0" 17 (Quantile.count q)

let test_quantile_error_bound () =
  let q = Quantile.create () in
  List.iter (Quantile.observe q) [ 100; 1_000; 50_000; 1_000_000 ];
  List.iter
    (fun (v, p) ->
      let b = Quantile.quantile q p in
      Alcotest.(check bool)
        (Fmt.str "upper bound at p=%.3f (%d for %d)" p b v)
        true
        (b >= v && b - v <= (v / 16) + 1))
    [ 100, 0.25; 1_000, 0.5; 50_000, 0.75; 1_000_000, 1.0 ];
  Alcotest.(check int) "max clamps the top quantile" 1_000_000
    (Quantile.p999 q)

let qcheck_quantile_merge_algebra =
  QCheck.Test.make
    ~name:"quantile merge is associative, commutative and order-free"
    ~count:100
    QCheck.(
      triple
        (small_list (int_range 0 100_000))
        (small_list (int_range 0 100_000))
        (small_list (int_range 0 100_000)))
    (fun (xs, ys, zs) ->
      let a = sketch_of xs and b = sketch_of ys and c = sketch_of zs in
      Quantile.equal
        (Quantile.merge (Quantile.merge a b) c)
        (Quantile.merge a (Quantile.merge b c))
      && Quantile.equal (Quantile.merge a b) (Quantile.merge b a)
      (* merging sketches = sketching the concatenation, any order *)
      && Quantile.equal
           (Quantile.merge a (Quantile.merge b c))
           (sketch_of (List.rev_append xs (List.rev_append ys zs))))

(* --- Span ---------------------------------------------------------------- *)

let test_span_latency_and_streaks () =
  let sp = Span.create ~n:2 in
  Span.on_invoke sp ~obj_id:1;
  Span.on_respond sp ~pid:0 ~layer:Sink.App ~obj_id:1 ~step:5 ~invoked:0
    ~overlapped:false ~aborted:false;
  Alcotest.(check int) "completed" 1 (Span.completed sp);
  let lat = Span.tail_of sp Sink.App in
  Alcotest.(check int) "latency count" 1 (Quantile.count lat);
  Alcotest.(check (float 1e-9)) "latency mean" 5.0 (Quantile.mean lat);
  (* Three aborts then a success: one streak of length 3. *)
  List.iter
    (fun step ->
      Span.on_invoke sp ~obj_id:1;
      Span.on_respond sp ~pid:1 ~layer:Sink.App ~obj_id:1 ~step:(step + 1)
        ~invoked:step ~overlapped:false ~aborted:true)
    [ 10; 12; 14 ];
  Span.on_invoke sp ~obj_id:1;
  Span.on_respond sp ~pid:1 ~layer:Sink.App ~obj_id:1 ~step:17 ~invoked:16
    ~overlapped:false ~aborted:false;
  match Span.to_json sp with
  | Json.Obj fields -> (
    Alcotest.(check bool) "all five spans completed" true
      (List.assoc "completed" fields = Json.Int 5);
    match List.assoc "abort_streaks" fields with
    | Json.Obj h ->
      Alcotest.(check bool) "one closed streak" true
        (List.assoc "count" h = Json.Int 1);
      Alcotest.(check bool) "streak length 3" true
        (List.assoc "max" h = Json.Int 3)
    | _ -> Alcotest.fail "abort_streaks should be a histogram object")
  | _ -> Alcotest.fail "span json should be an object"

let test_span_contention () =
  let sp = Span.create ~n:2 in
  Span.on_invoke sp ~obj_id:7;
  Span.on_invoke sp ~obj_id:7;
  (* both spans overlap on object 7: one contention window *)
  Span.on_respond sp ~pid:0 ~layer:Sink.App ~obj_id:7 ~step:2 ~invoked:0
    ~overlapped:true ~aborted:false;
  Span.on_respond sp ~pid:1 ~layer:Sink.App ~obj_id:7 ~step:3 ~invoked:1
    ~overlapped:true ~aborted:false;
  (* a solo operation afterwards does not reopen the window *)
  Span.on_invoke sp ~obj_id:7;
  Span.on_respond sp ~pid:0 ~layer:Sink.App ~obj_id:7 ~step:5 ~invoked:4
    ~overlapped:false ~aborted:false;
  match Span.to_json sp with
  | Json.Obj fields -> (
    match List.assoc "contention" fields with
    | Json.Obj c ->
      Alcotest.(check bool) "one window" true
        (List.assoc "windows" c = Json.Int 1);
      Alcotest.(check bool) "two contended spans" true
        (List.assoc "contended_spans" c = Json.Int 2)
    | _ -> Alcotest.fail "contention should be an object")
  | _ -> Alcotest.fail "span json should be an object"

(* --- Span over real runtimes ---------------------------------------------

   Random programs: 2–4 processes, each running 1–3 tasks that call 1–3
   shared objects or yield, some processes crashing or retiring mid-run;
   a final [stop] drops the calls still in flight. A collector watches
   the run while every task logs its own calls; the tracer's JSON must
   equal the one recomputed from those logs alone. *)

type span_task = {
  layer : Sink.layer;
  body : [ `Call of int * bool | `Yield ] list;
      (* object, and whether the object answers [Abort] *)
}

type span_program = {
  objects : int;
  tasks : span_task list array;  (* per process *)
  crash : int option array;
  retire : int option array;
  weights : float array;  (* scheduling weight per process *)
  seed : int;
}

type call = {
  c_pid : int;
  c_task : int;  (* index of the task on its process *)
  c_layer : Sink.layer;
  c_obj : int;
  c_aborts : bool;
  c_invoked : int;
  mutable c_responded : int;  (* max_int until the task sees its answer *)
}

let span_horizon = 40

let gen_span_program =
  let open QCheck.Gen in
  let* n = int_range 2 4 in
  let* objects = int_range 1 3 in
  let action =
    frequency
      [
        ( 3,
          map2
            (fun k aborts -> `Call (k, aborts))
            (int_bound (objects - 1))
            (map (fun d -> d = 0) (int_bound 2)) );
        1, return `Yield;
      ]
  in
  let task =
    map2
      (fun layer body -> { layer; body })
      (oneofl Sink.layers)
      (list_size (int_range 1 8) action)
  in
  let* tasks = array_repeat n (list_size (int_range 1 3) task) in
  let* crash = array_repeat n (opt ~ratio:0.3 (int_bound span_horizon)) in
  let* retire = array_repeat n (opt ~ratio:0.2 (int_range 1 span_horizon)) in
  let* weights = array_repeat n (float_range 0.2 3.0) in
  let* seed = int_bound 1_000_000 in
  return { objects; tasks; crash; retire; weights; seed }

let print_span_program p =
  let action = function
    | `Call (k, aborts) -> Fmt.str "call %d%s" k (if aborts then "!" else "")
    | `Yield -> "yield"
  in
  let opt = Fmt.(option ~none:(any "-") int) in
  Fmt.str "objects=%d seed=%d@.%a" p.objects p.seed
    Fmt.(
      array ~sep:cut (fun ppf (pid, tasks) ->
          Fmt.pf ppf "p%d w=%.2f crash=%a retire=%a:@ %a" pid p.weights.(pid)
            opt p.crash.(pid) opt p.retire.(pid)
            (list ~sep:semi (fun ppf t ->
                 Fmt.pf ppf "%s[%a]" (Sink.layer_name t.layer)
                   (list ~sep:comma string) (List.map action t.body)))
            tasks))
    (Array.mapi (fun pid tasks -> pid, tasks) p.tasks)

(* Run [p] with a collector attached; return its tracer and every call
   the tasks made, in invocation order. *)
let run_span_program p =
  let n = Array.length p.tasks in
  let rt = Runtime.create ~seed:(Int64.of_int p.seed) ~n () in
  let c = Collector.attach rt in
  let objs =
    Array.init p.objects (fun k ->
        Runtime.register_object rt ~name:(Fmt.str "o%d" k) ~respond:(fun ctx ->
            match ctx.Shared.op with
            | Value.Bool true -> Value.Abort
            | _ -> Value.Unit))
  in
  let calls = ref [] in
  Array.iteri
    (fun pid tasks ->
      List.iteri
        (fun task { layer; body } ->
          Runtime.spawn ~layer rt ~pid ~name:"t" (fun () ->
              List.iter
                (function
                  | `Yield -> Runtime.yield ()
                  | `Call (k, aborts) ->
                    let call =
                      { c_pid = pid; c_task = task; c_layer = layer; c_obj = k;
                        c_aborts = aborts; c_invoked = Runtime.now rt;
                        c_responded = max_int }
                    in
                    calls := call :: !calls;
                    ignore (Runtime.call objs.(k) (Value.Bool aborts) : Value.t);
                    call.c_responded <- Runtime.now rt)
                body))
        tasks)
    p.tasks;
  Array.iteri
    (fun pid -> Option.iter (fun step -> Runtime.crash_at rt ~pid ~step))
    p.crash;
  Array.iteri
    (fun pid -> Option.iter (fun at -> Runtime.retire ~at rt ~pid))
    p.retire;
  Runtime.run rt
    ~policy:(Policy.weighted (Array.mapi (fun pid w -> pid, w) p.weights))
    ~steps:span_horizon;
  Runtime.stop rt;
  Collector.spans c, List.rev !calls

(* The step a call was answered at, or max_int if [stop] dropped it. A
   call still in flight when its process crashed or retired never sees
   its answer: the runtime resolves it at the departure step, if the run
   got that far. *)
let answered_at p call =
  if call.c_responded < max_int then call.c_responded
  else
    let due = function Some s when s < span_horizon -> s | _ -> max_int in
    min (due p.crash.(call.c_pid)) (due p.retire.(call.c_pid))

(* The tracer's JSON recomputed from the task logs. A span is contended
   iff another call's window on its object intersects its own; an
   object's contention window opens when a second call is in flight and
   closes when none is. Within one step every response (departures
   first, then the scheduled task's) precedes the task's next invoke. *)
let reference_span_json p calls =
  let n = Array.length p.tasks in
  let calls = List.map (fun c -> c, answered_at p c) calls in
  let spans = List.filter (fun (_, r) -> r < max_int) calls in
  let latency = Array.init Sink.n_layers (fun _ -> Quantile.create ()) in
  List.iter
    (fun (c, r) ->
      Quantile.observe latency.(Sink.layer_index c.c_layer) (r - c.c_invoked))
    spans;
  let contended =
    List.length
      (List.filter
         (fun (c, r) ->
           List.exists
             (fun (c', r') ->
               c' != c && c'.c_obj = c.c_obj && c'.c_invoked < r
               && c.c_invoked < r')
             calls)
         spans)
  in
  let windows = ref 0 in
  for obj = 0 to p.objects - 1 do
    let events =
      List.concat_map
        (fun (c, r) ->
          if c.c_obj <> obj then []
          else (c.c_invoked, 1) :: (if r < max_int then [ r, 0 ] else []))
        calls
      |> List.sort compare
    in
    let in_flight = ref 0 and open_window = ref false in
    List.iter
      (fun (_, kind) ->
        if kind = 1 then begin
          incr in_flight;
          if !in_flight >= 2 && not !open_window then begin
            open_window := true;
            incr windows
          end
        end
        else begin
          decr in_flight;
          if !in_flight = 0 then open_window := false
        end)
      events
  done;
  let streaks = Quantile.create () and open_streak = Array.make n 0 in
  List.sort
    (fun (a, ra) (b, rb) -> compare (ra, a.c_task) (rb, b.c_task))
    spans
  |> List.iter (fun (c, _) ->
         let pid = c.c_pid in
         if c.c_aborts then open_streak.(pid) <- open_streak.(pid) + 1
         else if open_streak.(pid) > 0 then begin
           Quantile.observe streaks open_streak.(pid);
           open_streak.(pid) <- 0
         end);
  let by_layer f =
    Json.Obj
      (List.map
         (fun layer ->
           Sink.layer_name layer, f latency.(Sink.layer_index layer))
         Sink.layers)
  in
  Json.Obj
    [
      "completed", Json.Int (List.length spans);
      "latency", by_layer Quantile.log2_json;
      "tails", by_layer Quantile.to_json;
      "abort_streaks", Quantile.log2_json streaks;
      ( "open_abort_streaks",
        Json.Arr (Array.to_list open_streak |> List.map (fun s -> Json.Int s)) );
      ( "contention",
        Json.Obj
          [ "windows", Json.Int !windows; "contended_spans", Json.Int contended ]
      );
    ]

let qcheck_span_matches_task_logs =
  QCheck.Test.make ~name:"span aggregates match task logs" ~count:300
    (QCheck.make ~print:print_span_program gen_span_program)
    (fun p ->
      let spans, calls = run_span_program p in
      let got = Json.to_string (Span.to_json spans)
      and want = Json.to_string (reference_span_json p calls) in
      String.equal got want
      || QCheck.Test.fail_reportf "tracer    %s@.task logs %s" got want)

(* The generator reaches every case the reference distinguishes. *)
let test_span_programs_cover_cases () =
  let seen = Array.make 5 false in
  let rand = Random.State.make [| 2026 |] in
  for _ = 1 to 300 do
    let p = QCheck.Gen.generate1 ~rand gen_span_program in
    let spans, calls = run_span_program p in
    List.iter
      (fun c ->
        let r = answered_at p c in
        if c.c_responded = max_int && r < max_int then seen.(0) <- true;
        if r = max_int then seen.(1) <- true;
        if
          List.exists
            (fun c' ->
              c' != c && c'.c_pid = c.c_pid && c'.c_obj = c.c_obj
              && c'.c_invoked < r && c.c_invoked < answered_at p c')
            calls
        then seen.(2) <- true)
      calls;
    match Span.to_json spans with
    | Json.Obj fields ->
      (match List.assoc "contention" fields with
      | Json.Obj c when List.assoc "contended_spans" c <> Json.Int 0 ->
        seen.(3) <- true
      | _ -> ());
      (match List.assoc "abort_streaks" fields with
      | Json.Obj h when List.assoc "count" h <> Json.Int 0 -> seen.(4) <- true
      | _ -> ())
    | _ -> Alcotest.fail "span json should be an object"
  done;
  List.iteri
    (fun i what -> if not seen.(i) then Alcotest.failf "no program reached %s" what)
    [ "a call resolved by a departure"; "a call dropped by stop";
      "two calls of one pid in flight on one object"; "a contended span";
      "a closed abort streak" ]

(* The tracer as it was before its per-object state was packed into one
   int per object and [completed] became the sum of the latency counts:
   a verbatim copy, kept as the reference the packed tracer must match
   on any event stream, including responds with nothing in flight (a
   tracer attached mid-run) and pids out of range. *)
module Array_span = struct
  type t = {
    n : int;
    latency : Quantile.t array;
    mutable open_count : int array;
    mutable in_window : bool array;
    abort_streak : int array;
    streaks : Quantile.t;
    mutable completed : int;
    mutable contended_spans : int;
    mutable contention_windows : int;
  }

  let initial_objs = 64

  let create ~n =
    {
      n;
      latency = Array.init Sink.n_layers (fun _ -> Quantile.create ());
      open_count = Array.make initial_objs 0;
      in_window = Array.make initial_objs false;
      abort_streak = Array.make n 0;
      streaks = Quantile.create ();
      completed = 0;
      contended_spans = 0;
      contention_windows = 0;
    }

  let grown a cap fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let ensure_obj t obj_id =
    if obj_id >= Array.length t.open_count then begin
      let cap = Int.max (2 * Array.length t.open_count) (obj_id + 1) in
      t.open_count <- grown t.open_count cap 0;
      t.in_window <- grown t.in_window cap false
    end

  let on_invoke t ~obj_id =
    ensure_obj t obj_id;
    let opens = t.open_count.(obj_id) + 1 in
    t.open_count.(obj_id) <- opens;
    if opens >= 2 && not t.in_window.(obj_id) then begin
      t.in_window.(obj_id) <- true;
      t.contention_windows <- t.contention_windows + 1
    end

  let on_respond t ~pid ~layer ~obj_id ~step ~invoked ~overlapped ~aborted =
    if pid >= 0 && pid < t.n then begin
      t.completed <- t.completed + 1;
      Quantile.observe t.latency.(Sink.layer_index layer) (step - invoked);
      if overlapped then t.contended_spans <- t.contended_spans + 1;
      ensure_obj t obj_id;
      let opens = Int.max 0 (t.open_count.(obj_id) - 1) in
      t.open_count.(obj_id) <- opens;
      if opens = 0 then t.in_window.(obj_id) <- false;
      if aborted then t.abort_streak.(pid) <- t.abort_streak.(pid) + 1
      else if t.abort_streak.(pid) > 0 then begin
        Quantile.observe t.streaks t.abort_streak.(pid);
        t.abort_streak.(pid) <- 0
      end
    end

  let to_json t =
    let tail_of layer = t.latency.(Sink.layer_index layer) in
    Json.Obj
      [
        "completed", Json.Int t.completed;
        ( "latency",
          Json.Obj
            (List.map
               (fun layer ->
                 Sink.layer_name layer, Quantile.log2_json (tail_of layer))
               Sink.layers) );
        ( "tails",
          Json.Obj
            (List.map
               (fun layer -> Sink.layer_name layer, Quantile.to_json (tail_of layer))
               Sink.layers) );
        "abort_streaks", Quantile.log2_json t.streaks;
        ( "open_abort_streaks",
          Json.Arr (Array.to_list t.abort_streak |> List.map (fun s -> Json.Int s))
        );
        ( "contention",
          Json.Obj
            [
              "windows", Json.Int t.contention_windows;
              "contended_spans", Json.Int t.contended_spans;
            ] );
      ]
end

(* Random invoke/respond streams over 1–4 objects (now and then one past
   the initial 64 slots), with pids from -1 to n, every layer, latencies
   0–40 with small ones common, random overlap flags and frequent aborts,
   so windows open and close, streaks run and close, and responds arrive
   with nothing in flight. *)
let qcheck_span_matches_array_tracker =
  QCheck.Test.make ~name:"packed span equals array tracker" ~count:500
    QCheck.(int_range 0 1_000_000_000)
    (fun seed ->
      let g = Rng.create (Int64.of_int seed) in
      let n = 1 + Rng.int g 3 in
      let objs = 1 + Rng.int g 4 in
      let packed = Span.create ~n and reference = Array_span.create ~n in
      let layers = Array.of_list Sink.layers in
      for step = 0 to Rng.int g 300 do
        let obj_id = if Rng.int g 50 = 0 then 64 + Rng.int g 200 else Rng.int g objs in
        if Rng.int g 2 = 0 then begin
          Span.on_invoke packed ~obj_id;
          Array_span.on_invoke reference ~obj_id
        end
        else begin
          let pid = Rng.int g (n + 2) - 1 in
          let layer = layers.(Rng.int g (Array.length layers)) in
          let latency = if Rng.int g 3 = 0 then Rng.int g 41 else Rng.int g 16 in
          let overlapped = Rng.int g 3 = 0 and aborted = Rng.int g 2 = 0 in
          let invoked = step - latency in
          Span.on_respond packed ~pid ~layer ~obj_id ~step ~invoked ~overlapped
            ~aborted;
          Array_span.on_respond reference ~pid ~layer ~obj_id ~step ~invoked
            ~overlapped ~aborted
        end
      done;
      let got = Json.to_string (Span.to_json packed)
      and want = Json.to_string (Array_span.to_json reference) in
      (Span.completed packed = reference.Array_span.completed
      && String.equal got want)
      || QCheck.Test.fail_reportf "packed %s@.arrays %s" got want)

(* --- Json ---------------------------------------------------------------- *)

let test_json_printing () =
  let doc =
    Json.Obj
      [
        "s", Json.Str "a\"b\n";
        "i", Json.Int (-3);
        "f", Json.Float 1.5;
        "g", Json.Float 2.0;
        "a", Json.Arr [ Json.Bool true; Json.Null ];
      ]
  in
  Alcotest.(check string) "compact deterministic"
    "{\"s\":\"a\\\"b\\n\",\"i\":-3,\"f\":1.5,\"g\":2.0,\"a\":[true,null]}"
    (Json.to_string doc)

let test_json_schema () =
  let doc =
    Json.Obj
      [
        "b", Json.Arr [ Json.Int 1; Json.Int 2; Json.Int 3 ];
        "a", Json.Obj [ "x", Json.Str "s" ];
        "e", Json.Arr [];
      ]
  in
  Alcotest.(check (list string)) "sorted deduped paths"
    [
      ": object";
      "a.x: string";
      "a: object";
      "b: array";
      "b[]: int";
      "e: array";
    ]
    (Json.schema_paths doc)

(* --- Collector on a live scenario ---------------------------------------- *)

let build_stack ~seed =
  System.build ~seed ~n:3 ~spec:Counter.spec
    ~next_op:(Workload.forever Counter.inc)
    ~client_pids:[ 0; 1; 2 ] System.Tbwf_atomic

let test_collector_agrees_with_workload () =
  let stack = build_stack ~seed:42L in
  let telemetry = Collector.attach ~window:256 stack.System.rt in
  Runtime.run stack.System.rt ~policy:(Policy.round_robin ()) ~steps:6_000;
  Runtime.stop stack.System.rt;
  Alcotest.(check (array int)) "app_completed = workload completed"
    stack.System.stats.Workload.completed
    (Collector.app_completed telemetry);
  Alcotest.(check (array int)) "series totals = workload completed"
    stack.System.stats.Workload.completed
    (Series.totals (Collector.app_ops telemetry));
  Alcotest.(check int) "every step attributed" 6_000
    (Collector.total_steps telemetry);
  let per_pid = Collector.steps_per_pid telemetry in
  Alcotest.(check int) "pid + idle steps = total" 6_000
    (Collector.idle_steps telemetry + Array.fold_left ( + ) 0 per_pid);
  Array.iteri
    (fun pid steps ->
      let by_layer =
        List.fold_left
          (fun acc layer -> acc + Collector.layer_steps telemetry ~pid layer)
          0 Sink.layers
      in
      Alcotest.(check int) (Fmt.str "pid %d layers sum" pid) steps by_layer)
    per_pid;
  Alcotest.(check int) "handoffs = epochs"
    (Collector.leader_epochs telemetry)
    (List.length (Collector.handoffs telemetry));
  Alcotest.(check bool) "leadership changed hands at least once" true
    (Collector.leader_epochs telemetry >= 1)

let test_sink_lifecycle () =
  let rt = Runtime.create ~seed:7L ~n:2 () in
  Alcotest.(check bool) "nil sink inactive by default" false
    (Runtime.telemetry_active rt);
  let (_ : Collector.t) = Collector.attach rt in
  Alcotest.(check bool) "collector active" true (Runtime.telemetry_active rt);
  Runtime.set_sink rt Sink.nil;
  Alcotest.(check bool) "cleared" false (Runtime.telemetry_active rt);
  Runtime.stop rt

let test_snapshot_deterministic () =
  let snap seed =
    let stack = build_stack ~seed in
    let telemetry = Collector.attach stack.System.rt in
    let policy = Scenario.degraded_policy ~n:3 ~timely:[ 2 ] in
    Runtime.run stack.System.rt ~policy ~steps:4_000;
    Runtime.stop stack.System.rt;
    Collector.snapshot_string telemetry
  in
  Alcotest.(check string) "same seed, same snapshot" (snap 5L) (snap 5L);
  Alcotest.(check bool) "different seed, different snapshot" false
    (String.equal (snap 5L) (snap 6L))

(* --- the replay property -------------------------------------------------- *)

(* Telemetry must be a pure function of the run: replaying the recorded
   schedule on a fresh identically-seeded stack reproduces the snapshot
   byte for byte. *)
let qcheck_snapshot_replay_stable =
  QCheck.Test.make ~name:"snapshot byte-identical under schedule replay"
    ~count:25
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let seed = Int64.of_int seed in
      let stack = build_stack ~seed in
      let telemetry = Collector.attach ~window:128 stack.System.rt in
      let policy = Scenario.degraded_policy ~n:3 ~timely:[ 1; 2 ] in
      Runtime.run stack.System.rt ~policy ~steps:3_000;
      let sched = Trace.schedule (Option.get stack.System.trace) in
      let original = Collector.snapshot_string telemetry in
      Runtime.stop stack.System.rt;
      let stack' = build_stack ~seed in
      let telemetry' = Collector.attach ~window:128 stack'.System.rt in
      Runtime.run stack'.System.rt ~policy:(Policy.replay sched)
        ~steps:3_000;
      let replayed = Collector.snapshot_string telemetry' in
      Runtime.stop stack'.System.rt;
      String.equal original replayed)

(* --- merge tie-break ------------------------------------------------------ *)

(* Collector.merge interleaves step-sorted event lists chronologically;
   on EQUAL steps the first argument's events come first. That argument-
   order tie-break (not domain completion order) is what makes pooled
   matrix telemetry byte-identical at any job count — pin it directly. *)
let test_merge_tie_break_order () =
  let feed changes =
    let c = Collector.create ~n:3 () in
    let sink = Collector.sink c in
    List.iter
      (fun (step, leader) ->
        sink.Sink.on_signal ~step ~pid:leader
          (Sink.Leader_view { leader = Some leader }))
      changes;
    c
  in
  (* same steps in both collectors: every merge point is a tie *)
  let a = feed [ 10, 0; 20, 1 ] in
  let b = feed [ 10, 2; 20, 0 ] in
  let leaders c =
    List.map (fun e -> e.Collector.le_step, e.Collector.le_leader)
      (Collector.handoffs c)
  in
  Alcotest.(check (list (pair int int)))
    "a's events first on equal steps"
    [ 10, 0; 10, 2; 20, 1; 20, 0 ]
    (leaders (Collector.merge a b));
  Alcotest.(check (list (pair int int)))
    "argument order decides, not content"
    [ 10, 2; 10, 0; 20, 0; 20, 1 ]
    (leaders (Collector.merge b a))

(* --- merge of retained event lists ----------------------------------------

   The reference is the merge as it was first written: reverse both
   newest-first lists, merge them chronologically (the first argument's
   events first on equal steps), reverse back, and in [retain] mode keep
   the 256 newest once the total passes 512. Here it works on the
   chronological lists the accessors return. *)

let reference_merge_events ~retain step xs ys =
  let rec go acc xs ys =
    match xs, ys with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs', y :: ys' ->
      if step x <= step y then go (x :: acc) xs' ys else go (y :: acc) xs ys'
  in
  let newest_first = List.rev (go [] xs ys) in
  let kept =
    if retain && List.length xs + List.length ys > 512 then
      List.filteri (fun i _ -> i < 256) newest_first
    else newest_first
  in
  List.rev kept

(* One collector's events: step increments (0 makes a tie) with either a
   self-announced leader (a hand-off when it differs from the last one) or
   a crash. Sizes run from empty to past the retained cap. *)
let gen_events =
  QCheck.Gen.(
    int_range 0 700 >>= fun len ->
    list_repeat len (triple (int_range 0 2) bool (int_range 0 2)))

let collector_of ~retain events =
  let c =
    if retain then Collector.create ~retain:8 ~n:3 () else Collector.create ~n:3 ()
  in
  let sink = Collector.sink c in
  let step = ref 0 in
  List.iter
    (fun (gap, leader, pid) ->
      step := !step + gap;
      if leader then
        sink.Sink.on_signal ~step:!step ~pid
          (Sink.Leader_view { leader = Some pid })
      else sink.Sink.on_signal ~step:!step ~pid (Sink.Crash { pid }))
    events;
  c

let qcheck_merge_matches_reference =
  QCheck.Test.make ~name:"merge of event lists matches the reference" ~count:200
    (QCheck.make
       ~print:(fun (retain, runs) ->
         Fmt.str "retain=%b sizes=%a" retain
           Fmt.(Dump.list int)
           (List.map List.length runs))
       QCheck.Gen.(pair bool (int_range 2 4 >>= fun k -> list_repeat k gen_events)))
    (fun (retain, runs) ->
      let handoff_step (e : Collector.leader_event) = e.le_step in
      match List.map (collector_of ~retain) runs with
      | [] -> true
      | first :: rest ->
        (* Fold left as the pools do, checking every intermediate merge,
           so merged (and already truncated) lists meet new ones. *)
        let _, _, _, ok =
          List.fold_left
            (fun (acc, handoffs, crashes, ok) c ->
              let merged = Collector.merge acc c in
              let handoffs' =
                reference_merge_events ~retain handoff_step handoffs
                  (Collector.handoffs c)
              in
              let crashes' =
                reference_merge_events ~retain fst crashes (Collector.crashes c)
              in
              ( merged,
                handoffs',
                crashes',
                ok
                && Collector.handoffs merged = handoffs'
                && Collector.crashes merged = crashes' ))
            (first, Collector.handoffs first, Collector.crashes first, true)
            rest
        in
        ok)

(* --- merge edge cases ------------------------------------------------------ *)

let test_merge_empty_collectors () =
  let a = Collector.create ~n:2 () and b = Collector.create ~n:2 () in
  let m = Collector.merge a b in
  Alcotest.(check int) "no steps" 0 (Collector.total_steps m);
  Alcotest.(check (array int)) "no completions" [| 0; 0 |]
    (Collector.app_completed m);
  Alcotest.(check int) "no handoffs" 0 (List.length (Collector.handoffs m));
  Alcotest.(check bool) "snapshot still renders" true
    (String.length (Collector.snapshot_string m) > 0);
  Alcotest.check_raises "mismatched n rejected"
    (Invalid_argument "Collector.merge: process counts differ")
    (fun () -> ignore (Collector.merge a (Collector.create ~n:3 ())))

(* Merging a shared-memory collector (no net events, zero counters) with
   a message-passing one must keep the net section additive — the soak
   aggregate merges whatever shards a system ran on. *)
let test_merge_net_section () =
  let sm = Collector.create ~n:2 () in
  let mp = Collector.create ~n:2 () in
  let sink = Collector.sink mp in
  sink.Sink.on_signal ~step:5 ~pid:0
    (Sink.Message { src = 0; dst = 1; latency = 3; dropped = false });
  sink.Sink.on_signal ~step:6 ~pid:1
    (Sink.Message { src = 1; dst = 0; latency = 2; dropped = true });
  List.iter
    (fun m ->
      Alcotest.(check int) "sent sums" 2 (Collector.net_sent m);
      Alcotest.(check int) "dropped sums" 1 (Collector.net_dropped m);
      Alcotest.(check int) "only delivered latencies" 1
        (Quantile.count (Collector.net_latency m)))
    [ Collector.merge sm mp; Collector.merge mp sm ]

(* --- v2 stream schema golden ---------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let stream_schema_golden () =
  (* dune runtest runs with cwd = _build/default/test; `dune exec` from
     the repo root does not. *)
  match
    List.find_opt Sys.file_exists
      [ "golden/telemetry_stream.schema"; "test/golden/telemetry_stream.schema" ]
  with
  | Some p -> read_file p
  | None -> Alcotest.fail "telemetry_stream.schema golden not found"

let test_stream_schema_pinned () =
  let stack = build_stack ~seed:42L in
  let rt = stack.System.rt in
  let telemetry = Collector.attach ~window:256 rt in
  let tm = Tbwf_check.Tail_monitor.create ~n:3 ~window:2000 () in
  Runtime.set_sink rt
    (Sink.tee (Tbwf_check.Tail_monitor.sink tm) (Runtime.sink rt));
  let last = ref None in
  Collector.emit_every telemetry ~every:2000
    ~extra:(fun ~window:_ ->
      [ "tail_monitor", Tbwf_check.Tail_monitor.to_json tm ])
    (fun record -> last := Some record);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:6_000;
  Collector.stream_flush telemetry;
  Runtime.stop rt;
  match !last with
  | None -> Alcotest.fail "no stream record emitted"
  | Some record ->
    Alcotest.(check string) "tbwf-telemetry/v2 record schema"
      (stream_schema_golden ())
      (Json.schema_string record)

(* --- bounded live memory --------------------------------------------------- *)

(* The long-horizon configuration (no trace recording, a retained rate
   series, capped event lists, fixed-size sketches) must hold the
   collector's live words flat: 10x the steps, no growth. This is the
   invariant that lets tbwf_soak run tens of millions of steps in a few
   dozen MB. *)
let live_words_after steps =
  let n = 4 in
  let stack =
    Tbwf_system.System.build ~seed:11L ~record_trace:false ~telemetry:true
      ~telemetry_window:256 ~telemetry_retain:64 ~n
      Tbwf_system.System.Tbwf_atomic
  in
  let rt = stack.Tbwf_system.System.rt in
  let telemetry = Option.get stack.Tbwf_system.System.telemetry in
  Runtime.run rt
    ~policy:(Scenario.degraded_policy ~n ~timely:[ 1; 2; 3 ])
    ~steps;
  Runtime.stop rt;
  Obj.reachable_words (Obj.repr telemetry)

let test_bounded_live_words () =
  let short = live_words_after 100_000 in
  let long = live_words_after 1_000_000 in
  Alcotest.(check bool)
    (Fmt.str "live words bounded (%d @ 100k steps, %d @ 1M)" short long)
    true
    (long <= short + (short / 10))

let () =
  Alcotest.run "telemetry"
    [
      ( "hist",
        [
          Alcotest.test_case "log2 buckets" `Quick test_hist_buckets;
          Alcotest.test_case "stats" `Quick test_hist_stats;
          QCheck_alcotest.to_alcotest qcheck_log2_rendering_matches_reference;
        ] );
      ( "series",
        [
          Alcotest.test_case "windows" `Quick test_series_windows;
          Alcotest.test_case "growth" `Quick test_series_growth;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "exact small values" `Quick
            test_quantile_exact_small;
          Alcotest.test_case "relative error bound" `Quick
            test_quantile_error_bound;
          Alcotest.test_case "equal sees buckets" `Quick
            test_quantile_equal_sees_buckets;
          QCheck_alcotest.to_alcotest qcheck_quantile_merge_algebra;
        ] );
      ( "span",
        [
          Alcotest.test_case "latency and streaks" `Quick
            test_span_latency_and_streaks;
          Alcotest.test_case "contention windows" `Quick test_span_contention;
          QCheck_alcotest.to_alcotest qcheck_span_matches_task_logs;
          Alcotest.test_case "programs cover every case" `Quick
            test_span_programs_cover_cases;
          QCheck_alcotest.to_alcotest qcheck_span_matches_array_tracker;
        ] );
      ( "json",
        [
          Alcotest.test_case "printing" `Quick test_json_printing;
          Alcotest.test_case "schema paths" `Quick test_json_schema;
        ] );
      ( "collector",
        [
          Alcotest.test_case "agrees with workload" `Quick
            test_collector_agrees_with_workload;
          Alcotest.test_case "sink lifecycle" `Quick test_sink_lifecycle;
          Alcotest.test_case "deterministic snapshot" `Quick
            test_snapshot_deterministic;
          Alcotest.test_case "merge tie-break order" `Quick
            test_merge_tie_break_order;
          Alcotest.test_case "merge of empty collectors" `Quick
            test_merge_empty_collectors;
          QCheck_alcotest.to_alcotest qcheck_merge_matches_reference;
          Alcotest.test_case "merge net section (SM vs MP)" `Quick
            test_merge_net_section;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "v2 record schema pinned" `Quick
            test_stream_schema_pinned;
          Alcotest.test_case "bounded live words over 1M steps" `Slow
            test_bounded_live_words;
        ] );
      ( "replay",
        [ QCheck_alcotest.to_alcotest qcheck_snapshot_replay_stable ] );
    ]
