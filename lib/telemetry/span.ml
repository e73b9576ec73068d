(* Operation-span tracing.

   The runtime's invoke/respond events pair up into {e spans}: one span per
   shared-object operation, from its invocation step to its response step.
   The tracer aggregates spans as they close — one latency sketch per
   layer, abort/retry streaks per process, and contention windows
   (maximal periods during which an object had two or more operations in
   flight). Everything is derived from the event stream in event order, so
   a replayed schedule produces an identical aggregate. *)

open Tbwf_sim

(* A well-formed run closes every span it opens, but a sink attached
   mid-run (or a workload that dies between invoke and respond) can leak
   open spans; capping the per-pid stack keeps the tracer memory-bounded
   on arbitrarily long runs. 256 in-flight ops per process is far beyond
   anything a real stack issues. *)
let max_open_spans = 256

(* Each open span takes three slots of its pid's stack, oldest span at
   the bottom: the object, the invoke step, and the object's contention
   epoch just after the invoke — or [contended_at_invoke] when the span
   was contended from its invoke on. An object's epoch advances at every
   contended invoke on it (one that leaves two or more spans in flight),
   so a span is contended iff its epoch slot is [contended_at_invoke] or
   its object's epoch has moved since. *)
let slots = 3
let contended_at_invoke = min_int

type t = {
  n : int;
  latency : Quantile.t array;  (* indexed by Sink.layer_index *)
  stacks : int array array;  (* per pid, [slots] ints per open span *)
  depth : int array;  (* per pid, open spans on its stack *)
  (* obj_id is the runtime's dense sequential object id, so the
     per-object in-flight state lives in flat arrays grown on demand —
     this is the sink's hot path (two updates per register operation)
     and a hash table here costs an allocation per call. *)
  mutable open_count : int array;  (* obj_id -> in-flight spans *)
  mutable in_window : bool array;  (* obj_id -> contention window open *)
  mutable epoch : int array;  (* obj_id -> contended invokes so far *)
  abort_streak : int array;  (* per pid, current run of Abort results *)
  streaks : Quantile.t;  (* lengths of completed abort streaks *)
  mutable completed : int;
  mutable contended_spans : int;
  mutable contention_windows : int;
}

let initial_objs = 64

let create ~n =
  {
    n;
    latency = Array.init Sink.n_layers (fun _ -> Quantile.create ());
    stacks = Array.make n [||];
    depth = Array.make n 0;
    open_count = Array.make initial_objs 0;
    in_window = Array.make initial_objs false;
    epoch = Array.make initial_objs 0;
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
    let cap = max (2 * Array.length t.open_count) (obj_id + 1) in
    t.open_count <- grown t.open_count cap 0;
    t.in_window <- grown t.in_window cap false;
    t.epoch <- grown t.epoch cap 0
  end

let on_invoke t ~pid ~obj_id ~step =
  if pid >= 0 && pid < t.n && obj_id >= 0 then begin
    ensure_obj t obj_id;
    let opens = t.open_count.(obj_id) + 1 in
    t.open_count.(obj_id) <- opens;
    let contended = opens >= 2 in
    if contended then begin
      (* Everyone currently in flight on this object is contended. *)
      t.epoch.(obj_id) <- t.epoch.(obj_id) + 1;
      if not t.in_window.(obj_id) then begin
        t.in_window.(obj_id) <- true;
        t.contention_windows <- t.contention_windows + 1
      end
    end;
    let depth = t.depth.(pid) in
    if depth >= max_open_spans then begin
      (* Drop the oldest span. It stays counted in [open_count]: its
         response will find no span to close. *)
      let stack = t.stacks.(pid) in
      Array.blit stack slots stack 0 ((depth - 1) * slots);
      t.depth.(pid) <- depth - 1
    end
    else if (depth + 1) * slots > Array.length t.stacks.(pid) then
      t.stacks.(pid) <-
        grown t.stacks.(pid) (slots * min max_open_spans (max 4 (2 * depth))) 0;
    let depth = t.depth.(pid) and stack = t.stacks.(pid) in
    let at = depth * slots in
    stack.(at) <- obj_id;
    stack.(at + 1) <- step;
    stack.(at + 2) <- (if contended then contended_at_invoke else t.epoch.(obj_id));
    t.depth.(pid) <- depth + 1
  end

(* The index in [stack] of the newest span on [obj_id] starting at or
   below index [at], or -1. *)
let rec newest_on stack obj_id at =
  if at < 0 then -1
  else if stack.(at) = obj_id then at
  else newest_on stack obj_id (at - slots)

let on_respond t ~pid ~layer ~obj_id ~step ~aborted =
  if pid >= 0 && pid < t.n then begin
    (* Close the newest open span of [pid] on this object; skip silently if
       the sink was attached mid-operation and the invoke was never seen. *)
    let stack = t.stacks.(pid) and depth = t.depth.(pid) in
    let at = newest_on stack obj_id ((depth - 1) * slots) in
    if at >= 0 then begin
      let invoke = stack.(at + 1) and epoch = stack.(at + 2) in
      Array.blit stack (at + slots) stack at (((depth - 1) * slots) - at);
      t.depth.(pid) <- depth - 1;
      t.completed <- t.completed + 1;
      Quantile.observe t.latency.(Sink.layer_index layer) (step - invoke);
      if epoch = contended_at_invoke || epoch <> t.epoch.(obj_id) then
        t.contended_spans <- t.contended_spans + 1;
      let opens = max 0 (t.open_count.(obj_id) - 1) in
      t.open_count.(obj_id) <- opens;
      if opens = 0 then t.in_window.(obj_id) <- false
    end;
    if aborted then t.abort_streak.(pid) <- t.abort_streak.(pid) + 1
    else if t.abort_streak.(pid) > 0 then begin
      Quantile.observe t.streaks t.abort_streak.(pid);
      t.abort_streak.(pid) <- 0
    end
  end

(* Merge the closed-span aggregates of two tracers (latency sketches,
   completed streaks, contention totals). In-flight state — open spans and
   running abort streaks — is per-run and deliberately dropped: merging is
   for fan-out over independent runs, each of which has already finished. *)
let merge a b =
  if a.n <> b.n then invalid_arg "Span.merge: process counts differ";
  {
    n = a.n;
    latency =
      Array.init Sink.n_layers (fun i -> Quantile.merge a.latency.(i) b.latency.(i));
    stacks = Array.make a.n [||];
    depth = Array.make a.n 0;
    open_count = Array.make initial_objs 0;
    in_window = Array.make initial_objs false;
    epoch = Array.make initial_objs 0;
    abort_streak = Array.make a.n 0;
    streaks = Quantile.merge a.streaks b.streaks;
    completed = a.completed + b.completed;
    contended_spans = a.contended_spans + b.contended_spans;
    contention_windows = a.contention_windows + b.contention_windows;
  }

let tail_of t layer = t.latency.(Sink.layer_index layer)
let completed t = t.completed

let to_json t =
  Json.Obj
    [
      "completed", Json.Int t.completed;
      ( "latency",
        Json.Obj
          (List.map
             (fun layer ->
               Sink.layer_name layer, Quantile.log2_json (tail_of t layer))
             Sink.layers) );
      ( "tails",
        Json.Obj
          (List.map
             (fun layer ->
               Sink.layer_name layer, Quantile.to_json (tail_of t layer))
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
