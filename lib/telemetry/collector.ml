(* The per-runtime telemetry collector.

   [attach rt] builds a collector sized for the runtime and installs its
   sink; from then on every step, operation and signal feeds the
   aggregates below. Everything is keyed by the simulator's step counter
   and updated in event order, so the collector is exactly as
   deterministic as the run itself: same (seed, policy, code) ⇒
   byte-identical {!snapshot}.

   The headline series is [app_ops]: workload-level operation completions
   ([Sink.Op_complete], one per full [Tbwf.invoke] round trip) bucketed
   into step windows per process. This is the measured form of the
   paper's per-process rate — the quantity the degradation checker
   verdicts and E1's table report — and it equals
   [Workload.stats.completed] by construction, for every system
   including ones whose query-abortable object is itself built from many
   register calls. *)

open Tbwf_sim

type leader_event = { le_step : int; le_leader : int }

(* Periodic JSONL streaming state (see [emit_every]): the id of the
   stream window currently accumulating, plus the cumulative values at
   the last emit so each record can carry deltas. *)
type stream = {
  st_every : int;
  st_emit : Json.t -> unit;
  st_extra : window:int -> (string * Json.t) list;
  mutable st_window : int;  (* stream-window id being accumulated *)
  mutable st_completed : int;  (* total app completions at last emit *)
  mutable st_epochs : int;
  mutable st_steps : int;
  mutable st_net_sent : int;
  mutable st_net_dropped : int;
}

(* In bounded ([retain]) mode, timestamped event lists keep only this
   many most-recent entries; the counts ([epochs], crash totals) stay
   exact. *)
let retained_events = 256

(* Per-pid counters live in one flat array, a row of [row_width] ints
   per pid: the pid's steps in each layer (columns 0–3, by
   [Sink.layer_index]), then its invokes, responds, Abort results and
   Fail results. A step, an invoke and a respond of one pid all land in
   one row, so an event touches one small block instead of one array per
   counter. *)
let col_invokes = Sink.n_layers
let col_responds = col_invokes + 1
let col_aborts = col_invokes + 2
let col_fails = col_invokes + 3
let row_width = 8

type t = {
  n : int;
  window : int;
  retain : int option;
  mutable stream : stream option;
  mutable stream_due : int;
      (* first step of the next stream window; max_int without a stream *)
  spans : Span.t;
  app_ops : Series.t;
  counts : int array;  (* counts.(pid * row_width + column) *)
  mutable idle_steps : int;
  mutable total_steps : int;
  mutable last_step : int;
  app_completed : int array;  (* workload-level Op_complete per pid *)
  mutable register_abort_decisions : int;
  leader_changes : int array;  (* view changes per observer *)
  mutable current_leader : int option;  (* last self-announced leader *)
  mutable handoffs : leader_event list;  (* reverse chronological *)
  mutable handoffs_len : int;
  mutable epochs : int;
  mutable suspicion_flips : int;
  suspected_counts : int array;  (* times pid became suspected by someone *)
  mutable crashes : (int * int) list;  (* (step, pid), reverse *)
  mutable crashes_len : int;
  mutable n_crashes : int;  (* exact even when [crashes] is truncated *)
  mutable n_retires : int;  (* graceful leaves; kept out of snapshot v1 *)
  mutable net_sent : int;  (* messages admitted by the simulated network *)
  mutable net_dropped : int;  (* of which lost (partition cut or loss draw) *)
  net_latency : Quantile.t;  (* assigned one-way delays of delivered messages *)
}

let create ?(window = 1024) ?retain ~n () =
  {
    n;
    window;
    retain;
    stream = None;
    stream_due = max_int;
    spans = Span.create ~n;
    app_ops = Series.create ~window ?retain ~n ();
    counts = Array.make (n * row_width) 0;
    idle_steps = 0;
    total_steps = 0;
    last_step = -1;
    app_completed = Array.make n 0;
    register_abort_decisions = 0;
    leader_changes = Array.make n 0;
    current_leader = None;
    handoffs = [];
    handoffs_len = 0;
    epochs = 0;
    suspicion_flips = 0;
    suspected_counts = Array.make n 0;
    crashes = [];
    crashes_len = 0;
    n_crashes = 0;
    n_retires = 0;
    net_sent = 0;
    net_dropped = 0;
    net_latency = Quantile.create ();
  }

(* Keep an event list bounded in [retain] mode: newest-first truncation,
   amortized O(1) via the 2× slack. Counts stay exact; only the
   per-event detail beyond [retained_events] entries is dropped. The
   same cap applies after a merge — a fan-out fold over many retained
   collectors must stay as bounded as any one of them. *)
let truncate_events ~retain len list =
  if retain <> None && len > 2 * retained_events then
    List.filteri (fun i _ -> i < retained_events) list, retained_events
  else list, len

(* --- the v2 stream ------------------------------------------------------- *)

let stream_schema_version = "tbwf-telemetry/v2"

let int_array a = Json.Arr (Array.to_list a |> List.map (fun v -> Json.Int v))

(* One stream record covering window [w] (steps [w·every, (w+1)·every)).
   Counters are cumulative as of emission time with a [delta] since the
   previous record, tails are the cumulative per-layer sketches — all
   derived from event-ordered state, so the stream is byte-identical
   under replay and at any [--jobs]. *)
let stream_record t s ~w =
  let completed_total = Array.fold_left ( + ) 0 t.app_completed in
  let record =
    Json.Obj
      ([
         "schema", Json.Str stream_schema_version;
         "window", Json.Int w;
         "from_step", Json.Int (w * s.st_every);
         "to_step", Json.Int (((w + 1) * s.st_every) - 1);
         ( "steps",
           Json.Obj
             [
               "total", Json.Int t.total_steps;
               "delta", Json.Int (t.total_steps - s.st_steps);
               "idle", Json.Int t.idle_steps;
             ] );
         ( "ops",
           Json.Obj
             [
               "completed", int_array t.app_completed;
               "completed_total", Json.Int completed_total;
               "delta", Json.Int (completed_total - s.st_completed);
             ] );
         ( "tails",
           Json.Obj
             (List.map
                (fun layer ->
                  ( Sink.layer_name layer,
                    Quantile.to_json (Span.tail_of t.spans layer) ))
                Sink.layers) );
         ( "leader",
           Json.Obj
             [
               "epochs", Json.Int t.epochs;
               "delta", Json.Int (t.epochs - s.st_epochs);
               ( "current",
                 match t.current_leader with
                 | Some l -> Json.Int l
                 | None -> Json.Null );
             ] );
         ( "net",
           Json.Obj
             [
               "sent", Json.Int t.net_sent;
               "sent_delta", Json.Int (t.net_sent - s.st_net_sent);
               "dropped", Json.Int t.net_dropped;
               "dropped_delta", Json.Int (t.net_dropped - s.st_net_dropped);
             ] );
       ]
      @ s.st_extra ~window:w)
  in
  s.st_steps <- t.total_steps;
  s.st_completed <- completed_total;
  s.st_epochs <- t.epochs;
  s.st_net_sent <- t.net_sent;
  s.st_net_dropped <- t.net_dropped;
  s.st_emit record

(* Emit every stream window up to but excluding the one containing
   [step]. Called from [on_step] — the runtime emits [on_step] before any
   operation or signal of that step, so when the first step of a new
   window arrives, every event of the previous windows has been folded.
   Kept out of line: it runs once per stream window, and inlined it would
   put its division into [on_step]. *)
let[@inline never] stream_roll t ~step =
  match t.stream with
  | None -> ()
  | Some s ->
    let target = step / s.st_every in
    while s.st_window < target do
      stream_record t s ~w:s.st_window;
      s.st_window <- s.st_window + 1
    done;
    t.stream_due <- (s.st_window + 1) * s.st_every

let on_step t ~step ~pid ~layer =
  if step >= t.stream_due then stream_roll t ~step;
  t.total_steps <- t.total_steps + 1;
  t.last_step <- step;
  if pid < 0 then t.idle_steps <- t.idle_steps + 1
  else if pid < t.n then begin
    let i = (pid * row_width) + Sink.layer_index layer in
    t.counts.(i) <- t.counts.(i) + 1
  end

let on_invoke t ~pid ~obj_id =
  if pid >= 0 && pid < t.n then begin
    let i = (pid * row_width) + col_invokes in
    t.counts.(i) <- t.counts.(i) + 1;
    Span.on_invoke t.spans ~obj_id
  end

let on_respond t ~step ~pid ~layer ~obj_id ~invoked ~overlapped ~result =
  if pid >= 0 && pid < t.n then begin
    let row = pid * row_width in
    let counts = t.counts in
    counts.(row + col_responds) <- counts.(row + col_responds) + 1;
    let aborted =
      match result with
      | Value.Abort ->
        counts.(row + col_aborts) <- counts.(row + col_aborts) + 1;
        true
      | Value.Fail ->
        counts.(row + col_fails) <- counts.(row + col_fails) + 1;
        false
      | _ -> false
    in
    Span.on_respond t.spans ~pid ~layer ~obj_id ~step ~invoked ~overlapped
      ~aborted
  end

let on_signal t ~step ~pid signal =
  match signal with
  | Sink.Abort_decision ->
    t.register_abort_decisions <- t.register_abort_decisions + 1
  | Sink.Leader_view { leader } ->
    if pid >= 0 && pid < t.n then
      t.leader_changes.(pid) <- t.leader_changes.(pid) + 1;
    (* A leadership epoch boundary is a *self*-announcement by a process
       other than the current epoch's leader: pid now believes pid leads.
       Other view changes (followers catching up, views dropping to "?")
       are churn within an epoch. *)
    (match leader with
    | Some l
      when l = pid
           && (match t.current_leader with Some c -> c <> l | None -> true) ->
      t.current_leader <- leader;
      t.epochs <- t.epochs + 1;
      let handoffs, len =
        truncate_events ~retain:t.retain (t.handoffs_len + 1)
          ({ le_step = step; le_leader = l } :: t.handoffs)
      in
      t.handoffs <- handoffs;
      t.handoffs_len <- len
    | Some _ | None -> ())
  | Sink.Suspicion_flip { watched; suspected } ->
    t.suspicion_flips <- t.suspicion_flips + 1;
    if suspected && watched >= 0 && watched < t.n then
      t.suspected_counts.(watched) <- t.suspected_counts.(watched) + 1
  | Sink.Crash { pid = crashed } ->
    t.n_crashes <- t.n_crashes + 1;
    let crashes, len =
      truncate_events ~retain:t.retain (t.crashes_len + 1)
        ((step, crashed) :: t.crashes)
    in
    t.crashes <- crashes;
    t.crashes_len <- len
  | Sink.Retire _ -> t.n_retires <- t.n_retires + 1
  | Sink.Op_complete ->
    if pid >= 0 && pid < t.n then begin
      t.app_completed.(pid) <- t.app_completed.(pid) + 1;
      Series.bump t.app_ops ~pid ~step
    end
  | Sink.Message { src = _; dst = _; latency; dropped } ->
    t.net_sent <- t.net_sent + 1;
    if dropped then t.net_dropped <- t.net_dropped + 1
    else Quantile.observe t.net_latency latency

let sink t =
  {
    Sink.active = true;
    on_step = (fun ~step ~pid ~layer -> on_step t ~step ~pid ~layer);
    on_invoke =
      (fun ~step:_ ~pid ~obj ~op:_ -> on_invoke t ~pid ~obj_id:obj.Shared.id);
    on_respond =
      (fun ~step ~pid ~layer ~obj ~op:_ ~invoked ~overlapped ~result ->
        on_respond t ~step ~pid ~layer ~obj_id:obj.Shared.id ~invoked
          ~overlapped ~result);
    on_signal = (fun ~step ~pid s -> on_signal t ~step ~pid s);
  }

let attach ?window ?retain rt =
  let t = create ?window ?retain ~n:(Runtime.n rt) () in
  Runtime.set_sink rt (Sink.tee (Runtime.sink rt) (sink t));
  t

(* --- streaming control --------------------------------------------------- *)

let emit_every t ~every ?(extra = fun ~window:_ -> []) emit =
  if every < 1 then invalid_arg "Collector.emit_every: every must be positive";
  t.stream_due <- every;
  t.stream <-
    Some
      {
        st_every = every;
        st_emit = emit;
        st_extra = extra;
        st_window = 0;
        st_completed = 0;
        st_epochs = 0;
        st_steps = 0;
        st_net_sent = 0;
        st_net_dropped = 0;
      }

let stream_flush t =
  match t.stream with
  | None -> ()
  | Some s ->
    (* Emit every window through the one containing the last folded step
       (a final partial window included), then detach the stream. *)
    if t.last_step >= 0 then begin
      let final = t.last_step / s.st_every in
      while s.st_window <= final do
        stream_record t s ~w:s.st_window;
        s.st_window <- s.st_window + 1
      done
    end;
    t.stream <- None;
    t.stream_due <- max_int

(* --- merging -------------------------------------------------------------- *)

(* Combine the collectors of independent finished runs — the fan-out
   aggregation path: each parallel task attaches its own collector to its
   own runtime, and the merged view is folded afterwards in canonical
   task order. All aggregates combine commutatively (sums, bucket-wise
   sketch merges, cell-wise series merges); the event lists (handoffs,
   crashes) interleave by step with ties broken by argument order, so a
   left fold over tasks in index order is order-fixed: any domain count
   produces the same merged collector. Run-local cursor state
   (current-epoch leader, last step) does not survive a merge. *)
let merge a b =
  if a.n <> b.n then invalid_arg "Collector.merge: process counts differ";
  if a.window <> b.window then
    invalid_arg "Collector.merge: window sizes differ";
  if not (Option.equal Int.equal a.retain b.retain) then
    invalid_arg "Collector.merge: retentions differ";
  let sum_arrays x y = Array.init a.n (fun i -> x.(i) + y.(i)) in
  (* Newest-first merge of two newest-first event lists, built front to
     back and stopped at [limit] entries. Chronologically, on equal steps
     [xs]'s events come first, so merge order is fixed by argument order,
     not by which domain produced which list; newest first, [ys]'s come
     first. In [retain] mode a merge that would pass the cap keeps only
     the [retained_events] newest, as [truncate_events] would. *)
  let merge_events (step : _ -> int) xs xs_len ys ys_len =
    let len = xs_len + ys_len in
    let limit =
      if Option.is_some a.retain && len > 2 * retained_events then
        retained_events
      else len
    in
    let rec take k l =
      if k = 0 then []
      else match l with [] -> [] | x :: l' -> x :: take (k - 1) l'
    [@@tail_mod_cons]
    in
    let rec go k xs ys =
      if k = 0 then []
      else
        match xs, ys with
        | [], rest | rest, [] -> if limit = len then rest else take k rest
        | x :: xs', y :: ys' ->
          if step x > step y then x :: go (k - 1) xs' ys
          else y :: go (k - 1) xs ys'
    [@@tail_mod_cons]
    in
    go limit xs ys, limit
  in
  let handoffs, handoffs_len =
    merge_events (fun ev -> ev.le_step) a.handoffs a.handoffs_len b.handoffs
      b.handoffs_len
  in
  let crashes, crashes_len =
    merge_events fst a.crashes a.crashes_len b.crashes b.crashes_len
  in
  {
    n = a.n;
    window = a.window;
    retain = a.retain;
    stream = None;
    stream_due = max_int;
    spans = Span.merge a.spans b.spans;
    app_ops = Series.merge a.app_ops b.app_ops;
    counts = Array.mapi (fun i v -> v + b.counts.(i)) a.counts;
    idle_steps = a.idle_steps + b.idle_steps;
    total_steps = a.total_steps + b.total_steps;
    last_step = Int.max a.last_step b.last_step;
    app_completed = sum_arrays a.app_completed b.app_completed;
    register_abort_decisions =
      a.register_abort_decisions + b.register_abort_decisions;
    leader_changes = sum_arrays a.leader_changes b.leader_changes;
    current_leader = None;
    handoffs;
    handoffs_len;
    epochs = a.epochs + b.epochs;
    suspicion_flips = a.suspicion_flips + b.suspicion_flips;
    suspected_counts = sum_arrays a.suspected_counts b.suspected_counts;
    crashes;
    crashes_len;
    n_crashes = a.n_crashes + b.n_crashes;
    n_retires = a.n_retires + b.n_retires;
    net_sent = a.net_sent + b.net_sent;
    net_dropped = a.net_dropped + b.net_dropped;
    net_latency = Quantile.merge a.net_latency b.net_latency;
  }

let merge_all = function
  | [] -> invalid_arg "Collector.merge_all: empty list"
  | first :: rest -> List.fold_left merge first rest

(* --- accessors ----------------------------------------------------------- *)

let n t = t.n
let window t = t.window
let retain t = t.retain
let spans t = t.spans
let app_ops t = t.app_ops
let total_steps t = t.total_steps
let idle_steps t = t.idle_steps
let count t ~pid col = t.counts.((pid * row_width) + col)
let column t col = Array.init t.n (fun pid -> count t ~pid col)
let layer_steps t ~pid layer = count t ~pid (Sink.layer_index layer)

let pid_steps t pid =
  let sum = ref 0 in
  for l = 0 to Sink.n_layers - 1 do
    sum := !sum + count t ~pid l
  done;
  !sum

let steps_per_pid t = Array.init t.n (pid_steps t)
let app_completed t = Array.copy t.app_completed
let aborts t = column t col_aborts
let leader_epochs t = t.epochs
let handoffs t = List.rev t.handoffs
let crashes t = List.rev t.crashes
let crash_count t = t.n_crashes
let retire_count t = t.n_retires
let net_sent t = t.net_sent
let net_dropped t = t.net_dropped
let net_latency t = t.net_latency

(* Leader (by self-announcement) in effect at the end of each window,
   [None] before the first handoff — the timeline CLI's leader row. *)
let leader_by_window t =
  let windows = Series.windows t.app_ops in
  let events = List.rev t.handoffs in
  let out = Array.make windows None in
  let rec go current events w =
    if w < windows then begin
      let limit = (w + 1) * t.window in
      let rec advance current = function
        | ev :: rest when ev.le_step < limit -> advance (Some ev.le_leader) rest
        | rest -> current, rest
      in
      let current, rest = advance current events in
      out.(w) <- current;
      go current rest (w + 1)
    end
  in
  go None events 0;
  out

(* --- snapshot ------------------------------------------------------------ *)

let schema_version = "tbwf-telemetry/v1"

let snapshot t =
  Json.Obj
    [
      "schema", Json.Str schema_version;
      "n", Json.Int t.n;
      "window", Json.Int t.window;
      ( "steps",
        Json.Obj
          [
            "total", Json.Int t.total_steps;
            "idle", Json.Int t.idle_steps;
            "per_pid", int_array (steps_per_pid t);
            ( "attribution",
              Json.Arr
                (List.init t.n (fun pid ->
                     Json.Obj
                       (("pid", Json.Int pid)
                       :: List.map
                            (fun layer ->
                              ( Sink.layer_name layer,
                                Json.Int (layer_steps t ~pid layer) ))
                            Sink.layers))) );
          ] );
      ( "ops",
        Json.Obj
          [
            "invokes", int_array (column t col_invokes);
            "responds", int_array (column t col_responds);
            "aborts", int_array (column t col_aborts);
            "fails", int_array (column t col_fails);
            "app_completed", int_array t.app_completed;
            "register_abort_decisions", Json.Int t.register_abort_decisions;
          ] );
      "rates", Series.to_json t.app_ops;
      "spans", Span.to_json t.spans;
      ( "leader",
        Json.Obj
          [
            "epochs", Json.Int t.epochs;
            "changes", int_array t.leader_changes;
            ( "handoffs",
              Json.Arr
                (List.rev_map
                   (fun ev ->
                     Json.Obj
                       [
                         "step", Json.Int ev.le_step;
                         "leader", Json.Int ev.le_leader;
                       ])
                   t.handoffs) );
          ] );
      ( "suspicion",
        Json.Obj
          [
            "flips", Json.Int t.suspicion_flips;
            "suspected_counts", int_array t.suspected_counts;
          ] );
      ( "crashes",
        Json.Arr
          (List.rev_map
             (fun (step, pid) ->
               Json.Obj [ "step", Json.Int step; "pid", Json.Int pid ])
             t.crashes) );
      ( "net",
        Json.Obj
          [
            "sent", Json.Int t.net_sent;
            "dropped", Json.Int t.net_dropped;
            "latency", Quantile.log2_json t.net_latency;
          ] );
      (* Pinned by the v1 schema goldens; nothing fills it. *)
      "custom", Json.Obj [];
    ]

let snapshot_string t = Json.to_string (snapshot t)

(* --- human summary ------------------------------------------------------- *)

let pp_summary fmt t =
  Fmt.pf fmt "steps        %d total, %d idle@." t.total_steps t.idle_steps;
  Fmt.pf fmt "%-4s %9s %9s %9s %9s %9s %9s %9s@." "pid" "steps" "app" "omega"
    "monitor" "invokes" "aborts" "app-ops";
  for pid = 0 to t.n - 1 do
    Fmt.pf fmt "p%-3d %9d %9d %9d %9d %9d %9d %9d@." pid (pid_steps t pid)
      (layer_steps t ~pid Sink.App)
      (layer_steps t ~pid Sink.Omega)
      (layer_steps t ~pid Sink.Monitor)
      (count t ~pid col_invokes) (count t ~pid col_aborts) t.app_completed.(pid)
  done;
  Fmt.pf fmt "app latency  %a@." Quantile.pp_log2 (Span.tail_of t.spans Sink.App);
  Fmt.pf fmt "leader       %d epochs, view changes per pid %a@." t.epochs
    Fmt.(brackets (array ~sep:comma int))
    t.leader_changes;
  Fmt.pf fmt "suspicion    %d flips@." t.suspicion_flips;
  Fmt.pf fmt "reg aborts   %d decisions@." t.register_abort_decisions;
  if t.net_sent > 0 then
    Fmt.pf fmt "net          %d msgs, %d dropped, latency %a@." t.net_sent
      t.net_dropped Quantile.pp_log2 t.net_latency;
  match List.rev t.crashes with
  | [] -> ()
  | crashes ->
    Fmt.pf fmt "crashes      %a@."
      Fmt.(list ~sep:comma (pair ~sep:(any "@@") int int))
      (List.map (fun (s, p) -> p, s) crashes)
