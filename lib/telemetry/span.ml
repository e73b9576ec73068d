(* Operation-span tracing.

   A span is one shared-object operation, from its invocation step to its
   response step. The runtime pairs each response with its own invocation,
   says whether another operation overlapped it, and keeps each object's
   in-flight count, which the collector hands over with every invoke and
   respond; so the tracer only aggregates spans as they close — one
   latency sketch per layer, abort/retry streaks per process, and
   contention windows (each runs from the moment a second operation is in
   flight on an object until none is). Everything is derived from the event stream in
   event order, so a replayed schedule produces an identical aggregate. *)

open Tbwf_sim

type t = {
  n : int;
  latency : Quantile.t array;  (* indexed by Sink.layer_index *)
  (* obj id -> 1 while the object's contention window is open. obj_id is
     the runtime's dense sequential object id, so the bits live in one
     flat array, grown only when a window opens on an object past its
     end; [open_windows] counts the set bits, so a respond with nothing
     left in flight reads no bit while no window is open. *)
  mutable windows : int array;
  mutable open_windows : int;
  abort_streak : int array;  (* per pid, current run of Abort results *)
  streaks : Quantile.t;  (* lengths of completed abort streaks *)
  mutable contended_spans : int;
  mutable contention_windows : int;
}

let create ~n =
  {
    n;
    latency = Array.init Sink.n_layers (fun _ -> Quantile.create ());
    windows = [||];
    open_windows = 0;
    abort_streak = Array.make n 0;
    streaks = Quantile.create ();
    contended_spans = 0;
    contention_windows = 0;
  }

let[@inline never] open_window t obj_id =
  if obj_id >= Array.length t.windows then begin
    let len = Array.length t.windows in
    let windows = Array.make (Int.max (2 * len) (obj_id + 1)) 0 in
    Array.blit t.windows 0 windows 0 len;
    t.windows <- windows
  end;
  if t.windows.(obj_id) = 0 then begin
    t.windows.(obj_id) <- 1;
    t.open_windows <- t.open_windows + 1;
    t.contention_windows <- t.contention_windows + 1
  end

let close_window t obj_id =
  if obj_id < Array.length t.windows && t.windows.(obj_id) = 1 then begin
    t.windows.(obj_id) <- 0;
    t.open_windows <- t.open_windows - 1
  end

(* A second operation in flight opens the window if it is not open yet. *)
let on_invoke t ~obj_id ~in_flight =
  if in_flight >= 2 then open_window t obj_id

let on_respond t ~pid ~layer ~obj_id ~in_flight ~step ~invoked ~overlapped
    ~aborted =
  if pid >= 0 && pid < t.n then begin
    Quantile.observe t.latency.(Sink.layer_index layer) (step - invoked);
    if overlapped then t.contended_spans <- t.contended_spans + 1;
    (* The last one out closes the window. *)
    if in_flight = 0 && t.open_windows > 0 then close_window t obj_id;
    if aborted then t.abort_streak.(pid) <- t.abort_streak.(pid) + 1
    else if t.abort_streak.(pid) > 0 then begin
      Quantile.observe t.streaks t.abort_streak.(pid);
      t.abort_streak.(pid) <- 0
    end
  end

(* Merge the closed-span aggregates of two tracers (latency sketches,
   completed streaks, contention totals). In-flight state — open
   windows and running abort streaks — is per-run and deliberately
   dropped: merging is for fan-out over independent runs, each of which
   has already finished. *)
let merge a b =
  if a.n <> b.n then invalid_arg "Span.merge: process counts differ";
  {
    n = a.n;
    latency =
      Array.init Sink.n_layers (fun i -> Quantile.merge a.latency.(i) b.latency.(i));
    windows = [||];
    open_windows = 0;
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
