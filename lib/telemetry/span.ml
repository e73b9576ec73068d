(* Operation-span tracing.

   The runtime's invoke/respond events pair up into {e spans}: one span per
   shared-object operation, from its invocation step to its response step.
   The tracer aggregates spans as they close — one latency sketch per
   layer, abort/retry streaks per process, and contention windows
   (maximal periods during which an object had two or more operations in
   flight). Everything is derived from the event stream in event order, so
   a replayed schedule produces an identical aggregate. *)

open Tbwf_sim

type open_span = {
  os_obj : int;
  os_invoke : int;
  mutable os_contended : bool;
}

(* A well-formed run closes every span it opens, but a sink attached
   mid-run (or a workload that dies between invoke and respond) can leak
   open spans; capping the per-pid list keeps the tracer memory-bounded
   on arbitrarily long runs. 256 in-flight ops per process is far beyond
   anything a real stack issues. *)
let max_open_spans = 256

type t = {
  n : int;
  latency : Quantile.t array;  (* indexed by Sink.layer_index *)
  open_spans : open_span list array;  (* per pid, newest first *)
  open_len : int array;  (* per pid, length of [open_spans.(pid)] *)
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
    open_spans = Array.make n [];
    open_len = Array.make n 0;
    open_count = Array.make initial_objs 0;
    in_window = Array.make initial_objs false;
    abort_streak = Array.make n 0;
    streaks = Quantile.create ();
    completed = 0;
    contended_spans = 0;
    contention_windows = 0;
  }

let ensure_obj t obj_id =
  if obj_id >= Array.length t.open_count then begin
    let cap = max (2 * Array.length t.open_count) (obj_id + 1) in
    let open_count = Array.make cap 0 in
    Array.blit t.open_count 0 open_count 0 (Array.length t.open_count);
    t.open_count <- open_count;
    let in_window = Array.make cap false in
    Array.blit t.in_window 0 in_window 0 (Array.length t.in_window);
    t.in_window <- in_window
  end

let on_invoke t ~pid ~obj_id ~step =
  if pid >= 0 && pid < t.n && obj_id >= 0 then begin
    ensure_obj t obj_id;
    let sp = { os_obj = obj_id; os_invoke = step; os_contended = false } in
    let opens = t.open_count.(obj_id) + 1 in
    t.open_count.(obj_id) <- opens;
    let existing = t.open_spans.(pid) in
    let existing =
      if t.open_len.(pid) >= max_open_spans then begin
        t.open_len.(pid) <- max_open_spans - 1;
        List.filteri (fun i _ -> i < max_open_spans - 1) existing
      end
      else existing
    in
    t.open_spans.(pid) <- sp :: existing;
    t.open_len.(pid) <- t.open_len.(pid) + 1;
    if opens >= 2 then begin
      (* Everyone currently in flight on this object is contended. *)
      Array.iter
        (List.iter (fun other ->
             if other.os_obj = obj_id then other.os_contended <- true))
        t.open_spans;
      if not t.in_window.(obj_id) then begin
        t.in_window.(obj_id) <- true;
        t.contention_windows <- t.contention_windows + 1
      end
    end
  end

let on_respond t ~pid ~layer ~obj_id ~step ~aborted =
  if pid >= 0 && pid < t.n then begin
    (* Close the newest open span of [pid] on this object; skip silently if
       the sink was attached mid-operation and the invoke was never seen. *)
    let rec split acc = function
      | [] -> None
      | sp :: rest when sp.os_obj = obj_id ->
        Some (sp, List.rev_append acc rest)
      | sp :: rest -> split (sp :: acc) rest
    in
    (match split [] t.open_spans.(pid) with
    | None -> ()
    | Some (sp, rest) ->
      t.open_spans.(pid) <- rest;
      t.open_len.(pid) <- t.open_len.(pid) - 1;
      t.completed <- t.completed + 1;
      Quantile.observe t.latency.(Sink.layer_index layer) (step - sp.os_invoke);
      if sp.os_contended then t.contended_spans <- t.contended_spans + 1;
      ensure_obj t obj_id;
      let opens = max 0 (t.open_count.(obj_id) - 1) in
      t.open_count.(obj_id) <- opens;
      if opens = 0 then t.in_window.(obj_id) <- false);
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
    open_spans = Array.make a.n [];
    open_len = Array.make a.n 0;
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
