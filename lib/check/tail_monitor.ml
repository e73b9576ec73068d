(* Windowed completion monitor: a stall signal, not a verdict. Where
   [Degradation] judges one tail against one prediction, this watches the
   whole run as a sequence of fixed-size step windows and records, per
   process, whether each closed window saw at least one completion — the
   signal long soak runs stream out alongside the telemetry records. It
   has no prediction, so it watches every pid, crashed ones included.
   O(n) memory regardless of horizon. *)

open Tbwf_sim
module Json = Tbwf_telemetry.Json

type t = {
  n : int;
  window : int;  (* steps per window *)
  current : int array;  (* completions in the accumulating window *)
  last : int array;  (* completions in the last closed window *)
  min_rate : int array;  (* per-pid minimum over closed windows *)
  ok_windows : int array;  (* per-pid closed windows meeting the floor *)
  mutable window_end : int;  (* first step of the next window *)
  mutable closed : int;  (* number of closed windows *)
}

(* Completions a closed window must reach to count as ok. *)
let floor = 1

let create ~n ~window () =
  if window < 1 then invalid_arg "Tail_monitor.create: window must be positive";
  {
    n;
    window;
    current = Array.make n 0;
    last = Array.make n 0;
    min_rate = Array.make n max_int;
    ok_windows = Array.make n 0;
    window_end = window;
    closed = 0;
  }

let close_window t =
  for pid = 0 to t.n - 1 do
    let c = t.current.(pid) in
    t.last.(pid) <- c;
    if c < t.min_rate.(pid) then t.min_rate.(pid) <- c;
    if c >= floor then t.ok_windows.(pid) <- t.ok_windows.(pid) + 1;
    t.current.(pid) <- 0
  done;
  t.closed <- t.closed + 1;
  t.window_end <- t.window_end + t.window

(* Close every window that ends at or before [step]'s window. The runtime
   emits [on_step] before the step's signals, so by the time a window's
   first [Op_complete] arrives the previous window is already closed. *)
let roll t ~step =
  while step >= t.window_end do
    close_window t
  done

let on_signal t ~step ~pid signal =
  roll t ~step;
  match signal with
  | Sink.Op_complete ->
    if pid >= 0 && pid < t.n then t.current.(pid) <- t.current.(pid) + 1
  | _ -> ()

let sink t =
  (* named, so that test/division_guard.sh can find it *)
  let on_step ~step ~pid:_ ~layer:_ = roll t ~step in
  {
    Sink.active = true;
    on_step;
    on_invoke = Sink.nil.on_invoke;
    on_respond = Sink.nil.on_respond;
    on_signal = (fun ~step ~pid s -> on_signal t ~step ~pid s);
  }

let min_rate t ~pid = if t.closed = 0 then None else Some t.min_rate.(pid)

(* Every pid is ok iff every closed window met the floor. Before any
   window closes the answer is vacuously true. *)
let ok t = Array.for_all (fun c -> c = t.closed) t.ok_windows

let to_json t =
  let ints a = Json.Arr (Array.to_list a |> List.map (fun v -> Json.Int v)) in
  Json.Obj
    [
      "window", Json.Int t.window;
      "floor", Json.Int floor;
      "watch", Json.Arr (List.init t.n (fun p -> Json.Int p));
      "closed", Json.Int t.closed;
      "last", ints t.last;
      "ok_windows", ints t.ok_windows;
      ( "min_rate",
        Json.Arr
          (List.init t.n (fun pid ->
               match min_rate t ~pid with
               | None -> Json.Null
               | Some r -> Json.Int r)) );
      "ok", Json.Bool (ok t);
    ]
