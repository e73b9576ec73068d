exception Simulation_over

type pending = {
  p_invoked : int;  (* the invoke step *)
  p_obj : Shared.t;
  p_op : Value.t;
  p_overlapped_at_invoke : bool;
      (* another op on the object was in flight when this one was invoked *)
  p_invokes_at_invoke : int;
      (* object invocation count just after this op's invocation *)
  p_events_at_invoke : int;
      (* object event-counter value just after this op's invocation *)
}

type machine_action = M_yield | M_call of Shared.t * Value.t | M_halt

(* A machine is a compiled task body: an effect-free step function that,
   given the result of its last call ([Value.Unit] on resume-from-yield
   and at the first step), runs to its next suspension point and says
   how it suspended. One invocation of the function = one step, exactly
   mirroring the effects-based contract that a task runs from suspension
   to next effect. *)
type machine = Value.t -> machine_action

(* A suspended call's pending record and a machine's step function live
   on the task, so a suspension boxes at most its continuation. A task has
   at most one call in flight; each call gets a fresh pending record. Reusing
   one record per task would save its 7 words, but every call would then
   store young values into a long-lived block, and those write-barrier
   stores measured slower than the allocation. *)
type task_state =
  | Ready of (unit -> unit)
  | Suspended_local of (unit, unit) Effect.Deep.continuation
  | Suspended_call of (Value.t, unit) Effect.Deep.continuation
  | Awaiting of (unit -> bool) * (unit, unit) Effect.Deep.continuation
      (* parked: each step of the task tests the condition, and only a
         true test resumes the fiber *)
  | Machine_ready
  | Machine_awaiting
  | Running
  | Finished

type task = {
  t_name : string;
  t_pid : int;
  t_layer : Sink.layer;
  t_machine : machine;  (* a machine task's step function *)
  mutable t_pend : pending;  (* the task's call in flight, if any *)
  mutable t_state : task_state;
}

(* Tasks live in a growable array (spawn order, first [n_tasks] slots) so
   the per-step round-robin pick walks the array in place; [live] counts
   tasks not yet Finished, so runnability is one comparison instead of a
   list scan. *)
type proc = {
  pid : int;
  mutable tasks : task array;
  mutable n_tasks : int;
  mutable live : int;
  mutable next_task : int;  (* round-robin cursor *)
  mutable is_crashed : bool;
  mutable is_retired : bool;
}

(* Deferred membership events: late task activations, graceful
   retirements and crashes scheduled for a future step. *)
type event_kind =
  | Ev_task of { pid : int; name : string; layer : Sink.layer;
                 state : task_state }
  | Ev_retire of int
  | Ev_crash of int

type t = {
  num : int;
  rng : Rng.t;
  obj_rng : Rng.t;
  procs : proc array;  (* [num] slots, one per process *)
  mutable step : int;
  mutable next_obj_id : int;
  (* Object ids are dense (allocated by [register_object]), so the
     per-object counters index arrays instead of hashtables. *)
  mutable events_by_obj : int array;
      (* obj id -> number of invocation/response events so far *)
  mutable in_flight_by_obj : int array;  (* obj id -> ops in flight *)
  mutable invokes_by_obj : int array;  (* obj id -> invocations so far *)
  mutable events : (int * event_kind) list;
      (* (due step, kind), kept in application order — see [insert_event] —
         so the per-step check reads only the head *)
  mutable sink : Sink.t;
      (* the one observer slot: trace recorder, collector and checkers
         are all sinks, teed; Sink.nil = unobserved *)
  (* Cached runnable-pid set, recomputed only when membership can have
     changed (spawn, a proc's last task finishing, a crash). The cache is
     replaced by a fresh array on recomputation, never mutated in place,
     so arrays handed to policies stay stable: [Policy.of_patterns]
     keeps its calendar while it is handed the same array, and
     [Policy.Replay_mismatch] captures one. *)
  mutable runnable_cache : int array;
  mutable runnable_dirty : bool;
  mutable running : int;  (* pid of the task step in progress *)
}

type _ Effect.t +=
  | Yield : unit Effect.t
  | Call : Shared.t * Value.t -> Value.t Effect.t
  | Await : (unit -> bool) -> unit Effect.t
  | Self : int Effect.t

let fresh_proc pid =
  {
    pid;
    tasks = [||];
    n_tasks = 0;
    live = 0;
    next_task = 0;
    is_crashed = false;
    is_retired = false;
  }

let create ?(seed = 0xC0FFEEL) ~n () =
  if n < 1 then invalid_arg "Runtime.create: need at least one process";
  {
    num = n;
    rng = Rng.create seed;
    (* A stream of its own, derived from the seed: object-level random
       decisions (abort draws, write effects) must not share the
       scheduling policy's stream, or a replayed schedule — which consumes
       no scheduling randomness — would shift every object draw and
       diverge from the run it replays. *)
    obj_rng = Rng.create (Int64.logxor seed 0x6F626A5F726E6721L);
    procs = Array.init n fresh_proc;
    step = 0;
    next_obj_id = 0;
    events_by_obj = Array.make 16 0;
    in_flight_by_obj = Array.make 16 0;
    invokes_by_obj = Array.make 16 0;
    events = [];
    sink = Sink.nil;
    runnable_cache = [||];
    runnable_dirty = true;
    running = -1;
  }

let n t = t.num
let rng t = t.rng
let obj_rng t = t.obj_rng
let now t = t.step
let running t = t.running

(* --- observers ---------------------------------------------------------- *)

let set_sink t sink = t.sink <- sink
let sink t = t.sink

(* A sink that ignores signals (a trace recorder alone) is active but
   keeps nil's [on_signal], which a tee preserves: no payload is built
   for it. *)
let telemetry_active t = t.sink.Sink.on_signal != Sink.nil.Sink.on_signal

(* Emit a structured signal on behalf of [pid] at the current step. Cheap
   when disabled, but call sites should still guard on [telemetry_active]
   before allocating the signal payload. *)
let signal t ~pid s =
  if t.sink.Sink.active then t.sink.Sink.on_signal ~step:t.step ~pid s

let grow counts cap =
  let grown = Array.make cap 0 in
  Array.blit counts 0 grown 0 (Array.length counts);
  grown

let ensure_obj t id =
  let len = Array.length t.events_by_obj in
  if id >= len then begin
    let cap = Int.max (id + 1) (2 * len) in
    t.events_by_obj <- grow t.events_by_obj cap;
    t.in_flight_by_obj <- grow t.in_flight_by_obj cap;
    t.invokes_by_obj <- grow t.invokes_by_obj cap
  end

let register_object t ~name ~respond =
  let id = t.next_obj_id in
  t.next_obj_id <- id + 1;
  ensure_obj t id;
  Shared.make ~id ~name ~respond

(* Placeholders for the fields a task fills in before it reads them: the
   call of a task that has made none yet, the step function of a task that
   is not a machine. *)
let no_pending =
  {
    p_invoked = 0;
    p_obj = Shared.make ~id:(-1) ~name:"" ~respond:(fun _ -> Value.Fail);
    p_op = Value.Unit;
    p_overlapped_at_invoke = false;
    p_invokes_at_invoke = 0;
    p_events_at_invoke = 0;
  }

let no_machine : machine = fun _ -> M_halt

let make_task ~pid ~name ~layer ~machine state =
  { t_name = name; t_pid = pid; t_layer = layer; t_machine = machine;
    t_pend = no_pending; t_state = state }

let push_task ?(machine = no_machine) t ~pid ~name ~layer state =
  if pid < 0 || pid >= t.num then invalid_arg "Runtime.spawn: bad pid";
  let proc = t.procs.(pid) in
  let task = make_task ~pid ~name ~layer ~machine state in
  let cap = Array.length proc.tasks in
  if proc.n_tasks = cap then begin
    let grown = Array.make (Int.max 4 (2 * cap)) task in
    Array.blit proc.tasks 0 grown 0 cap;
    proc.tasks <- grown
  end;
  proc.tasks.(proc.n_tasks) <- task;
  proc.n_tasks <- proc.n_tasks + 1;
  proc.live <- proc.live + 1;
  t.runnable_dirty <- true

let spawn ?(layer = Sink.Other) t ~pid ~name body =
  push_task t ~pid ~name ~layer (Ready body)

let spawn_machine ?(layer = Sink.Other) t ~pid ~name fn =
  push_task ~machine:fn t ~pid ~name ~layer Machine_ready

type task_form = Fiber | Machine

let task_forms t ~pid =
  let proc = t.procs.(pid) in
  List.init proc.n_tasks (fun i ->
      let task = proc.tasks.(i) in
      task.t_name, if task.t_machine == no_machine then Fiber else Machine)

let crashed t ~pid = t.procs.(pid).is_crashed
let retired t ~pid = t.procs.(pid).is_retired

(* --- deferred events ----------------------------------------------------- *)

(* The queue is ordered by due step; within a step, activations and
   retirements come in scheduling order and crashes after them in reverse
   scheduling order. One rule keeps that order: a new event goes in front
   of the first entry that is due later, or due at the same step and a
   crash. *)
let is_crash = function Ev_crash _ -> true | Ev_task _ | Ev_retire _ -> false

let rec insert_event (due : int) kind = function
  | ((d, k) as e) :: rest when d < due || (d = due && not (is_crash k)) ->
    e :: insert_event due kind rest
  | events -> (due, kind) :: events

let schedule_event t ~step kind = t.events <- insert_event step kind t.events

(* A crash due at a step that has passed applies at the next step. *)
let crash_at t ~pid ~step =
  schedule_event t ~step:(Int.max step t.step) (Ev_crash pid)

(* --- dynamic membership -------------------------------------------------- *)

let spawn_at ?(layer = Sink.Other) t ~pid ~at ~name body =
  if pid < 0 || pid >= t.num then invalid_arg "Runtime.spawn_at: bad pid";
  if at <= t.step then push_task t ~pid ~name ~layer (Ready body)
  else
    schedule_event t ~step:at (Ev_task { pid; name; layer; state = Ready body })

let yield () = Effect.perform Yield
let call obj op = Effect.perform (Call (obj, op))
let self () = Effect.perform Self
let park cond = Effect.perform (Await cond)
let await cond = if not (cond ()) then park cond

(* All transitions into [Finished] funnel through here so the proc's
   [live] count decrements exactly once per task: crash/stop teardown
   first finishes the task, then discontinues its continuation, and the
   handler's [exnc] lands here a second time as a no-op. *)
let finish_task t task =
  match task.t_state with
  | Finished -> ()
  | Ready _ | Suspended_local _ | Suspended_call _ | Awaiting _
  | Machine_ready | Machine_awaiting | Running ->
    task.t_state <- Finished;
    let proc = t.procs.(task.t_pid) in
    proc.live <- proc.live - 1;
    if proc.live = 0 then t.runnable_dirty <- true

(* --- pending-operation bookkeeping ------------------------------------- *)

let events_of t obj_id = t.events_by_obj.(obj_id)

let bump_events t obj_id =
  t.events_by_obj.(obj_id) <- t.events_by_obj.(obj_id) + 1

let remove_pending t pend =
  let obj_id = pend.p_obj.Shared.id in
  t.in_flight_by_obj.(obj_id) <- t.in_flight_by_obj.(obj_id) - 1

(* Another op overlapped this one iff one was in flight at its invocation
   or one was invoked while it was in flight. A task has one call in
   flight, so the sink receives that call's own invoke step and flag and
   pairs nothing itself. *)
let respond_pending t task =
  let pend = task.t_pend in
  remove_pending t pend;
  let obj_id = pend.p_obj.Shared.id in
  let overlapped =
    pend.p_overlapped_at_invoke
    || t.invokes_by_obj.(obj_id) > pend.p_invokes_at_invoke
  in
  let step_contended = events_of t obj_id > pend.p_events_at_invoke in
  bump_events t obj_id;
  let ctx =
    {
      Shared.pid = task.t_pid;
      respond_step = t.step;
      overlapped;
      step_contended;
      rng = t.obj_rng;
      op = pend.p_op;
    }
  in
  let result = pend.p_obj.Shared.respond ctx in
  if t.sink.Sink.active then
    t.sink.Sink.on_respond ~step:t.step ~pid:task.t_pid ~layer:task.t_layer
      ~obj:pend.p_obj ~op:pend.p_op ~invoked:pend.p_invoked ~overlapped
      ~result;
  result

(* Invocation-side bookkeeping, shared by the effects handler's [Call]
   case and the machine interpreter's [M_call]: a fiber and a machine that
   make the same call must count it and report it to the sink identically
   for their runs to stay byte-identical. *)
let begin_call t task obj op =
  let id = obj.Shared.id in
  ensure_obj t id;
  bump_events t id;
  let in_flight = t.in_flight_by_obj.(id) in
  t.in_flight_by_obj.(id) <- in_flight + 1;
  let invokes = t.invokes_by_obj.(id) + 1 in
  t.invokes_by_obj.(id) <- invokes;
  task.t_pend <-
    {
      p_invoked = t.step;
      p_obj = obj;
      p_op = op;
      p_overlapped_at_invoke = in_flight > 0;
      p_invokes_at_invoke = invokes;
      p_events_at_invoke = events_of t id;
    };
  if t.sink.Sink.active then
    t.sink.Sink.on_invoke ~step:t.step ~pid:task.t_pid ~obj ~op

(* --- task execution ----------------------------------------------------- *)

(* A task body's uncaught exception, and a parked condition's, name the
   task on stderr before they propagate out of the run. *)
let report_raise task e =
  let bt = Printexc.get_raw_backtrace () in
  Fmt.epr "task %S (pid %d) raised: %s@." task.t_name task.t_pid
    (Printexc.to_string e);
  Printexc.raise_with_backtrace e bt

(* Built once per task, when its body first runs. The closures the
   handler hands back for [Yield], [Call] and [Self] are built here too, so
   performing an effect allocates none of them; [Call] starts its call
   before handing back [on_call], which only parks the continuation.
   [Await] builds one closure per park, not per step. *)
let handler t task =
  let open Effect.Deep in
  let on_yield =
    Some (fun (k : (unit, unit) continuation) -> task.t_state <- Suspended_local k)
  in
  let on_call =
    Some (fun (k : (Value.t, unit) continuation) -> task.t_state <- Suspended_call k)
  in
  let on_self = Some (fun (k : (int, unit) continuation) -> continue k task.t_pid) in
  {
    retc = (fun () -> finish_task t task);
    exnc =
      (fun e ->
        match e with
        | Simulation_over -> finish_task t task
        | e -> report_raise task e);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | Yield -> on_yield
        | Await cond -> Some (fun k -> task.t_state <- Awaiting (cond, k))
        | Call (obj, op) ->
          begin_call t task obj op;
          on_call
        | Self -> on_self
        | _ -> None);
  }

let runnable_task task =
  match task.t_state with
  | Ready _ | Suspended_local _ | Suspended_call _ | Awaiting _
  | Machine_ready | Machine_awaiting ->
    true
  | Running | Finished -> false

let proc_runnable proc =
  (not proc.is_crashed) && (not proc.is_retired) && proc.live > 0

(* Returned by [pick_task] when [proc] has no runnable task. *)
let no_task =
  make_task ~pid:(-1) ~name:"" ~layer:Sink.Other ~machine:no_machine Finished

(* The cursor never passes [n_tasks] (it is reset with it), so [idx <
   2 n_tasks] and one subtraction wraps it. *)
let rec search proc tries idx =
  let count = proc.n_tasks in
  if tries >= count then no_task
  else
    let i = if idx >= count then idx - count else idx in
    let task = proc.tasks.(i) in
    if runnable_task task then begin
      proc.next_task <- i + 1;
      task
    end
    else search proc (tries + 1) (idx + 1)

(* The next runnable task of [proc], round-robin over the task array
   starting at the cursor, or [no_task]. *)
let pick_task proc = search proc 0 proc.next_task

let exec_task_step t task =
  match task.t_state with
  | Ready body ->
    task.t_state <- Running;
    Effect.Deep.match_with body () (handler t task)
  | Suspended_local k ->
    task.t_state <- Running;
    Effect.Deep.continue k ()
  | Awaiting (cond, k) -> (
    (* The step's one test of the condition; a false one leaves the task
       parked and its fiber untouched. *)
    match cond () with
    | false -> ()
    | true ->
      task.t_state <- Running;
      Effect.Deep.continue k ()
    | exception e -> report_raise task e)
  | Suspended_call k ->
    let result = respond_pending t task in
    task.t_state <- Running;
    Effect.Deep.continue k result
  (* A machine runs synchronously, with no continuation to capture, no
     other task running meanwhile and no teardown inside its step (see
     [spawn_machine]), so it keeps its state through the call, and the
     state is stored only when the action changes it: an idle yield, or a
     call answered and the next one invoked, stores nothing (each store
     is a [caml_modify]). *)
  | Machine_ready -> (
    match task.t_machine Value.Unit with
    | M_yield -> ()
    | M_call (obj, op) ->
      begin_call t task obj op;
      task.t_state <- Machine_awaiting
    | M_halt -> finish_task t task)
  | Machine_awaiting -> (
    let result = respond_pending t task in
    match task.t_machine result with
    | M_yield -> task.t_state <- Machine_ready
    | M_call (obj, op) -> begin_call t task obj op
    | M_halt -> finish_task t task)
  | Running | Finished -> assert false

(* Finish every task of [proc], unwinding suspended ones — the one
   teardown under crashes, graceful retirements and [stop]. An in-flight
   operation is resolved first when [resolve] (crash, retire), so the
   object's state stays well defined; [stop] merely drops it. *)
let teardown t ~resolve proc =
  let settle task =
    if resolve then ignore (respond_pending t task : Value.t)
    else remove_pending t task.t_pend
  in
  let unwind task =
    match task.t_state with
    | Suspended_call k ->
      settle task;
      finish_task t task;
      (try Effect.Deep.discontinue k Simulation_over with Simulation_over -> ())
    | Suspended_local k | Awaiting (_, k) ->
      finish_task t task;
      (try Effect.Deep.discontinue k Simulation_over with Simulation_over -> ())
    | Machine_awaiting ->
      settle task;
      finish_task t task
    | Ready _ | Machine_ready -> finish_task t task
    | Running | Finished -> ()
  in
  for i = 0 to proc.n_tasks - 1 do
    unwind proc.tasks.(i)
  done

let crash_proc t proc =
  proc.is_crashed <- true;
  t.runnable_dirty <- true;
  if telemetry_active t then
    signal t ~pid:proc.pid (Sink.Crash { pid = proc.pid });
  teardown t ~resolve:true proc

let retire_proc t proc =
  proc.is_retired <- true;
  t.runnable_dirty <- true;
  if telemetry_active t then
    signal t ~pid:proc.pid (Sink.Retire { pid = proc.pid });
  teardown t ~resolve:true proc;
  (* A retired process never runs again: drop its task storage so a
     long-lived world with heavy churn compacts as members leave. *)
  proc.tasks <- [||];
  proc.n_tasks <- 0;
  proc.live <- 0;
  proc.next_task <- 0

let retire ?at t ~pid =
  if pid < 0 || pid >= t.num then invalid_arg "Runtime.retire: bad pid";
  match at with
  | Some at when at > t.step -> schedule_event t ~step:at (Ev_retire pid)
  | _ ->
    let proc = t.procs.(pid) in
    if not (proc.is_crashed || proc.is_retired) then retire_proc t proc

(* Apply the due events from the head of the queue, which is already in
   application order. A crash and a retirement due at the same step leave
   the process crashed; an activation on a process that crashed or retired
   first is dropped. The common case — nothing due — reads one list cell. *)
let rec apply_due t =
  match t.events with
  | (due, kind) :: rest when due <= t.step ->
    t.events <- rest;
    (match kind with
    | Ev_task { pid; name; layer; state } ->
      let proc = t.procs.(pid) in
      if not (proc.is_crashed || proc.is_retired) then
        push_task t ~pid ~name ~layer state
    | Ev_retire pid ->
      let proc = t.procs.(pid) in
      if not (proc.is_crashed || proc.is_retired) then retire_proc t proc
    | Ev_crash pid ->
      let proc = t.procs.(pid) in
      if not proc.is_crashed then crash_proc t proc);
    apply_due t
  | _ -> ()

let recompute_runnable t =
  let count = ref 0 in
  for i = 0 to t.num - 1 do
    if proc_runnable t.procs.(i) then incr count
  done;
  let fresh = Array.make !count 0 in
  let j = ref 0 in
  for i = 0 to t.num - 1 do
    let p = t.procs.(i) in
    if proc_runnable p then begin
      fresh.(!j) <- p.pid;
      incr j
    end
  done;
  t.runnable_cache <- fresh;
  t.runnable_dirty <- false

(* The public accessor copies the cache: callers of the original
   implementation received a fresh array per call and could do anything
   with it; only the internal hot loop reads the cache directly. *)
let runnable_pids t =
  apply_due t;
  if t.runnable_dirty then recompute_runnable t;
  Array.copy t.runnable_cache

let run_task_step t ~pid task =
  t.running <- pid;
  if t.sink.Sink.active then
    t.sink.Sink.on_step ~step:t.step ~pid ~layer:task.t_layer;
  exec_task_step t task

let record_idle_step t =
  if t.sink.Sink.active then
    t.sink.Sink.on_step ~step:t.step ~pid:(-1) ~layer:Sink.Other

(* One step on behalf of [pid], or nobody when [pid] is -1: run the
   process's next task round-robin (an idle step if it has none), then
   advance the clock. The one pick-and-execute under [run] and [step]. *)
let execute t pid =
  (if pid < 0 then record_idle_step t
   else
     let task = pick_task t.procs.(pid) in
     if task == no_task then record_idle_step t else run_task_step t ~pid task);
  t.step <- t.step + 1

let step t ~pid =
  apply_due t;
  if pid < 0 || pid >= t.num then invalid_arg "Runtime.step: bad pid";
  if not (proc_runnable t.procs.(pid)) then
    invalid_arg (Fmt.str "Runtime.step: pid %d is not runnable" pid);
  execute t pid

let run t ~policy ~steps =
  let deadline = t.step + steps in
  let pick = Policy.next policy in
  let continue_run = ref true in
  while !continue_run && t.step < deadline do
    apply_due t;
    if t.runnable_dirty then recompute_runnable t;
    let runnable = t.runnable_cache in
    if Array.length runnable = 0 then
      (* Nobody is runnable now, but a scheduled activation may still be
         due before the deadline: idle toward it rather than stopping —
         "no runnable task" only ends the run once no task can appear. *)
      if
        List.exists
          (fun (s, k) ->
            s < deadline
            &&
            match k with
            | Ev_task _ -> true
            | Ev_retire _ | Ev_crash _ -> false)
          t.events
      then execute t (-1)
      else continue_run := false
    else
      execute t (pick ~step:t.step ~runnable ~rng:t.rng)
  done

let stop t =
  for p = 0 to t.num - 1 do
    teardown t ~resolve:false t.procs.(p)
  done
