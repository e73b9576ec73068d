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
     per-object in-flight state lives in one flat array grown on demand
     — this is the sink's hot path (two updates per register operation)
     and a hash table here costs an allocation per call. Each cell packs
     the object's in-flight count, doubled, with its contention-window
     bit: [2 * opens + window]. *)
  mutable objs : int array;
  abort_streak : int array;  (* per pid, current run of Abort results *)
  streaks : Quantile.t;  (* lengths of completed abort streaks *)
  mutable contended_spans : int;
  mutable contention_windows : int;
}

let initial_objs = 64

let create ~n =
  {
    n;
    latency = Array.init Sink.n_layers (fun _ -> Quantile.create ());
    objs = Array.make initial_objs 0;
    abort_streak = Array.make n 0;
    streaks = Quantile.create ();
    contended_spans = 0;
    contention_windows = 0;
  }

let ensure_obj t obj_id =
  if obj_id >= Array.length t.objs then begin
    let cap = Int.max (2 * Array.length t.objs) (obj_id + 1) in
    let objs = Array.make cap 0 in
    Array.blit t.objs 0 objs 0 (Array.length t.objs);
    t.objs <- objs
  end

(* A second operation in flight opens the window if it is not open yet:
   the cell reaches 4 or more with its window bit clear. *)
let on_invoke t ~obj_id =
  ensure_obj t obj_id;
  let cell = t.objs.(obj_id) + 2 in
  if cell >= 4 && cell land 1 = 0 then begin
    t.objs.(obj_id) <- cell lor 1;
    t.contention_windows <- t.contention_windows + 1
  end
  else t.objs.(obj_id) <- cell

let on_respond t ~pid ~layer ~obj_id ~step ~invoked ~overlapped ~aborted =
  if pid >= 0 && pid < t.n then begin
    Quantile.observe t.latency.(Sink.layer_index layer) (step - invoked);
    if overlapped then t.contended_spans <- t.contended_spans + 1;
    ensure_obj t obj_id;
    (* The last one out closes the window: a cell below 4 holds at most
       one operation, which is this one (a tracer attached mid-run may
       see a response with none counted). *)
    let cell = t.objs.(obj_id) in
    t.objs.(obj_id) <- (if cell < 4 then 0 else cell - 2);
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
    objs = Array.make initial_objs 0;
    abort_streak = Array.make a.n 0;
    streaks = Quantile.merge a.streaks b.streaks;
    contended_spans = a.contended_spans + b.contended_spans;
    contention_windows = a.contention_windows + b.contention_windows;
  }

let tail_of t layer = t.latency.(Sink.layer_index layer)
(* Every closed span is observed once into its layer's sketch. *)
let completed t =
  Array.fold_left (fun acc q -> acc + Quantile.count q) 0 t.latency

let to_json t =
  Json.Obj
    [
      "completed", Json.Int (completed t);
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
