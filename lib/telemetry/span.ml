(* Operation-span tracing.

   A span is one shared-object operation, from its invocation step to its
   response step. The runtime pairs each response with its own invocation
   and says whether another operation overlapped it, so the tracer only
   aggregates spans as they close — one latency sketch per layer,
   abort/retry streaks per process, and contention windows (each runs
   from the moment a second operation is in flight on an object until
   none is). Everything is derived from the event stream in event order,
   so a replayed schedule produces an identical aggregate. *)

open Tbwf_sim

type t = {
  n : int;
  latency : Quantile.t array;  (* indexed by Sink.layer_index *)
  (* obj_id is the runtime's dense sequential object id, so the
     per-object in-flight state lives in flat arrays grown on demand —
     this is the sink's hot path (two updates per register operation)
     and a hash table here costs an allocation per call. *)
  mutable open_count : int array;  (* obj_id -> in-flight spans *)
  mutable in_window : bool array;  (* obj_id -> contention window open *)
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
    let cap = max (2 * Array.length t.open_count) (obj_id + 1) in
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
    let opens = max 0 (t.open_count.(obj_id) - 1) in
    t.open_count.(obj_id) <- opens;
    if opens = 0 then t.in_window.(obj_id) <- false;
    if aborted then t.abort_streak.(pid) <- t.abort_streak.(pid) + 1
    else if t.abort_streak.(pid) > 0 then begin
      Quantile.observe t.streaks t.abort_streak.(pid);
      t.abort_streak.(pid) <- 0
    end
  end

(* Merge the closed-span aggregates of two tracers (latency sketches,
   completed streaks, contention totals). In-flight state — per-object
   counts and running abort streaks — is per-run and deliberately
   dropped: merging is for fan-out over independent runs, each of which
   has already finished. *)
let merge a b =
  if a.n <> b.n then invalid_arg "Span.merge: process counts differ";
  {
    n = a.n;
    latency =
      Array.init Sink.n_layers (fun i -> Quantile.merge a.latency.(i) b.latency.(i));
    open_count = Array.make initial_objs 0;
    in_window = Array.make initial_objs false;
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
