open Tbwf_sim

let value = Alcotest.testable Value.pp Value.equal

(* A trace of [rt]'s run, recorded from its first step. *)
let record rt =
  let trace = Trace.create () in
  Runtime.set_sink rt (Trace.recorder trace);
  trace

(* A trivial cell object for runtime tests: applies writes, answers reads,
   and records contention flags. *)
let make_cell rt =
  let contents = ref (Value.Int 0) in
  let overlaps = ref [] in
  let contentions = ref [] in
  let obj =
    Runtime.register_object rt ~name:"cell" ~respond:(fun ctx ->
        overlaps := ctx.Shared.overlapped :: !overlaps;
        contentions := ctx.Shared.step_contended :: !contentions;
        match ctx.Shared.op with
        | Value.Pair (Str "write", v) ->
          contents := v;
          Value.Unit
        | Value.Pair (Str "read", _) -> !contents
        | _ -> assert false)
  in
  obj, contents, overlaps, contentions

let test_single_task_runs_to_completion () =
  let rt = Runtime.create ~n:1 () in
  let counter = ref 0 in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      for _ = 1 to 10 do
        incr counter;
        Runtime.yield ()
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check int) "body completed" 10 !counter;
  Alcotest.(check bool) "stopped early when done" true (Runtime.now rt < 100)

let test_register_op_spans_two_steps () =
  let rt = Runtime.create ~n:1 () in
  let obj, _, _, _ = make_cell rt in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      let (_ : Value.t) = Runtime.call obj Value.read_op in
      ());
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  (* invoke step + response step *)
  Alcotest.(check int) "two steps" 2 (Runtime.now rt)

let test_solo_ops_not_overlapped () =
  let rt = Runtime.create ~n:1 () in
  let obj, contents, overlaps, contentions = make_cell rt in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      let (_ : Value.t) = Runtime.call obj (Value.write_op (Value.Int 7)) in
      let (_ : Value.t) = Runtime.call obj Value.read_op in
      ());
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.check value "write applied" (Value.Int 7) !contents;
  Alcotest.(check bool) "no overlap" true (List.for_all not !overlaps);
  Alcotest.(check bool) "no contention" true (List.for_all not !contentions)

let test_interleaved_ops_overlap () =
  let rt = Runtime.create ~n:2 () in
  let obj, _, overlaps, contentions = make_cell rt in
  for pid = 0 to 1 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        let (_ : Value.t) = Runtime.call obj Value.read_op in
        ())
  done;
  (* Round robin: p0 invokes, p1 invokes, p0 responds, p1 responds. *)
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check (list bool)) "both overlapped" [ true; true ] !overlaps;
  Alcotest.(check (list bool)) "both step-contended" [ true; true ] !contentions

let test_pending_op_overlaps_but_does_not_contend () =
  let rt = Runtime.create ~n:2 () in
  let obj, _, overlaps, contentions = make_cell rt in
  (* p0 invokes an op and then never runs again (Silent after step 0), so
     its operation stays pending. p1's later ops overlap that pending op,
     but p0 generates no steps, so p1 is not step-contended (after p1's
     first op window, which contains p0's invocation). *)
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      let (_ : Value.t) = Runtime.call obj Value.read_op in
      ());
  Runtime.spawn rt ~pid:1 ~name:"t" (fun () ->
      for _ = 1 to 3 do
        let (_ : Value.t) = Runtime.call obj Value.read_op in
        ()
      done);
  let policy =
    Policy.of_patterns
      [ 0, Policy.Switch_at (1, Policy.Every { period = 1; offset = 0 }, Policy.Silent);
        1, Policy.Weighted 1.0 ]
  in
  Runtime.run rt ~policy ~steps:100;
  (* p0 invoked at step 0 and froze; p1's three ops all overlap that pending
     operation, but the frozen process generates no events inside their
     windows, so none of them is step-contended. *)
  Alcotest.(check int) "three responses" 3 (List.length !overlaps);
  Alcotest.(check bool) "all overlapped (pending op)" true
    (List.for_all Fun.id !overlaps);
  Alcotest.(check (list bool)) "none step-contended" [ false; false; false ]
    !contentions

let test_crash_stops_process () =
  let rt = Runtime.create ~n:2 () in
  let steps_taken = Array.make 2 0 in
  for pid = 0 to 1 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        while true do
          steps_taken.(pid) <- steps_taken.(pid) + 1;
          Runtime.yield ()
        done)
  done;
  Runtime.crash_at rt ~pid:0 ~step:20;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check bool) "pid 0 crashed" true (Runtime.crashed rt ~pid:0);
  Alcotest.(check bool) "pid 1 alive" false (Runtime.crashed rt ~pid:1);
  Alcotest.(check bool) "pid 0 stopped near crash point" true
    (steps_taken.(0) <= 12);
  Alcotest.(check bool) "pid 1 kept going" true (steps_taken.(1) > 40);
  Runtime.stop rt

let test_crash_resolves_pending_op () =
  let rt = Runtime.create ~n:2 () in
  let responded = ref 0 in
  let obj =
    Runtime.register_object rt ~name:"o" ~respond:(fun _ctx ->
        incr responded;
        Value.Unit)
  in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      let (_ : Value.t) = Runtime.call obj (Value.write_op (Value.Int 1)) in
      ());
  Runtime.spawn rt ~pid:1 ~name:"spin" (fun () ->
      while true do
        Runtime.yield ()
      done);
  (* Crash p0 right after its invoke step (p0 runs at step 0, crash at 1). *)
  Runtime.crash_at rt ~pid:0 ~step:1;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  Alcotest.(check int) "pending op resolved at crash" 1 !responded;
  Runtime.stop rt

(* A call resolved by a crash, or dropped by [stop], is no longer in
   flight: a later call on the same object is answered alone. *)
let test_settled_calls_leave_no_overlap () =
  let rt = Runtime.create ~n:3 () in
  let obj, _, overlaps, _ = make_cell rt in
  let read () = ignore (Runtime.call obj Value.read_op : Value.t) in
  Runtime.spawn rt ~pid:0 ~name:"t" read;
  Runtime.spawn rt ~pid:1 ~name:"t" read;
  Runtime.step rt ~pid:0;
  (* The crash resolves p0's call at step 1, before p1 invokes. *)
  Runtime.crash_at rt ~pid:0 ~step:1;
  Runtime.step rt ~pid:1;
  Runtime.step rt ~pid:1;
  Runtime.spawn rt ~pid:2 ~name:"t" read;
  Runtime.step rt ~pid:2;
  (* [stop] drops p2's call; p1 then calls again. *)
  Runtime.stop rt;
  Runtime.spawn rt ~pid:1 ~name:"t" read;
  Runtime.step rt ~pid:1;
  Runtime.step rt ~pid:1;
  Alcotest.(check (list bool))
    "crash-resolved call, then two solo calls" [ false; false; false ]
    !overlaps

let test_multi_task_round_robin () =
  let rt = Runtime.create ~n:1 () in
  let log = ref [] in
  for task = 0 to 2 do
    Runtime.spawn rt ~pid:0 ~name:(Fmt.str "t%d" task) (fun () ->
        for _ = 1 to 3 do
          log := task :: !log;
          Runtime.yield ()
        done)
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check (list int)) "tasks interleaved round-robin"
    [ 0; 1; 2; 0; 1; 2; 0; 1; 2 ]
    (List.rev !log)

(* Two tasks of one process with calls in flight on one object: each
   span closes with its own invoke step, in its own task's layer. Tasks
   run round-robin in spawn order: the Ω∆ task invokes at step 0, the
   empty task finishes at step 1, the monitor task invokes at step 2, and
   the two calls are answered at steps 3 and 4. Pairing each response
   with the process's newest open span on the object would time the Ω∆
   span at 1 step and the monitor span at 4. *)
let test_one_pid_overlapping_spans () =
  let open Tbwf_telemetry in
  let rt = Runtime.create ~n:1 () in
  let telemetry = Collector.attach rt in
  let obj, _, overlaps, _ = make_cell rt in
  let read () = ignore (Runtime.call obj Value.read_op : Value.t) in
  Runtime.spawn ~layer:Sink.Omega rt ~pid:0 ~name:"omega" read;
  Runtime.spawn rt ~pid:0 ~name:"empty" ignore;
  Runtime.spawn ~layer:Sink.Monitor rt ~pid:0 ~name:"monitor" read;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  Alcotest.(check (list bool)) "both calls overlapped" [ true; true ]
    !overlaps;
  let spans = Collector.spans telemetry in
  List.iter
    (fun (layer, latencies) ->
      let sketch = Span.tail_of spans layer in
      let name = Sink.layer_name layer in
      Alcotest.(check int) (name ^ " spans") (List.length latencies)
        (Quantile.count sketch);
      List.iter
        (fun latency ->
          Alcotest.(check int) (name ^ " latency") latency
            (Quantile.max_value sketch))
        latencies)
    [ Sink.Omega, [ 3 ]; Sink.Monitor, [ 2 ]; Sink.App, []; Sink.Other, [] ]

let test_self () =
  let rt = Runtime.create ~n:3 () in
  let seen = Array.make 3 (-1) in
  for pid = 0 to 2 do
    Runtime.spawn rt ~pid ~name:"t" (fun () -> seen.(pid) <- Runtime.self ())
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  Alcotest.(check (array int)) "self returns own pid" [| 0; 1; 2 |] seen

let test_determinism_same_seed () =
  let run seed =
    let rt = Runtime.create ~seed ~n:3 () in
    let trace = record rt in
    let obj, contents, _, _ = make_cell rt in
    for pid = 0 to 2 do
      Runtime.spawn rt ~pid ~name:"t" (fun () ->
          for k = 1 to 20 do
            let (_ : Value.t) =
              Runtime.call obj (Value.write_op (Value.Int ((pid * 100) + k)))
            in
            ()
          done)
    done;
    Runtime.run rt ~policy:(Policy.weighted [| 0, 1.0; 1, 2.0; 2, 3.0 |]) ~steps:500;
    let pids = List.init (Trace.length trace) (Trace.pid_at trace) in
    pids, !contents
  in
  let t1, c1 = run 123L in
  let t2, c2 = run 123L in
  let t3, _ = run 321L in
  Alcotest.(check (list int)) "same seed, same schedule" t1 t2;
  Alcotest.check value "same seed, same state" c1 c2;
  Alcotest.(check bool) "different seed, different schedule" true (t1 <> t3)

let test_await () =
  let rt = Runtime.create ~n:2 () in
  let flag = ref false in
  let done_waiting = ref false in
  Runtime.spawn rt ~pid:0 ~name:"waiter" (fun () ->
      Runtime.await (fun () -> !flag);
      done_waiting := true);
  Runtime.spawn rt ~pid:1 ~name:"setter" (fun () ->
      for _ = 1 to 10 do
        Runtime.yield ()
      done;
      flag := true);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check bool) "await completed after flag" true !done_waiting

let test_stop_unwinds_tasks () =
  let rt = Runtime.create ~n:1 () in
  let cleaned = ref false in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      try
        while true do
          Runtime.yield ()
        done
      with Runtime.Simulation_over as e ->
        cleaned := true;
        raise e);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  Runtime.stop rt;
  Alcotest.(check bool) "teardown reached task" true !cleaned

let test_spawn_during_run () =
  let rt = Runtime.create ~n:1 () in
  let child_ran = ref false in
  Runtime.spawn rt ~pid:0 ~name:"parent" (fun () ->
      Runtime.spawn rt ~pid:0 ~name:"child" (fun () -> child_ran := true);
      Runtime.yield ());
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  Alcotest.(check bool) "dynamically spawned task ran" true !child_ran

let test_idle_steps_advance_time () =
  let rt = Runtime.create ~n:1 () in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      while true do
        Runtime.yield ()
      done);
  let policy = Policy.of_patterns [ 0, Policy.Silent ] in
  Runtime.run rt ~policy ~steps:50;
  Alcotest.(check int) "idle steps counted" 50 (Runtime.now rt);
  Runtime.stop rt

(* A sink that records every signal as (step, signal), oldest first. *)
let recording_sink () =
  let log = ref [] in
  let sink =
    {
      Sink.nil with
      Sink.active = true;
      on_signal = (fun ~step ~pid:_ s -> log := (step, s) :: !log);
    }
  in
  sink, fun () -> List.rev !log

(* [Sink.tee] hands out a side's own callback where the other side's is
   [Sink.nil]'s, and calls both sides, first then second, otherwise. *)
let test_tee_skips_nil_callbacks () =
  let calls = ref [] in
  let recording tag =
    {
      Sink.nil with
      Sink.active = true;
      on_respond =
        (fun ~step ~pid:_ ~layer:_ ~obj:_ ~op:_ ~invoked ~overlapped:_
             ~result:_ -> calls := (tag, step, invoked) :: !calls);
    }
  in
  let a = recording "a" and b = recording "b" in
  let quiet = { Sink.nil with Sink.active = true } in
  Alcotest.(check bool) "one side reads responds: the tee's is its own" true
    ((Sink.tee quiet a).Sink.on_respond == a.Sink.on_respond
    && (Sink.tee a quiet).Sink.on_respond == a.Sink.on_respond);
  Alcotest.(check bool) "a tee with one active side is active" true
    (Sink.tee quiet Sink.nil).Sink.active;
  let obj = Shared.make ~id:0 ~name:"o" ~respond:(fun _ -> Value.Unit) in
  (Sink.tee a b).Sink.on_respond ~step:3 ~pid:0 ~layer:Sink.App ~obj
    ~op:Value.read_op ~invoked:1 ~overlapped:false ~result:Value.Unit;
  Alcotest.(check (list (triple string int int))) "both sides, in order"
    [ "a", 3, 1; "b", 3, 1 ]
    (List.rev !calls)

let spin () =
  while true do
    Runtime.yield ()
  done

let test_same_step_event_order () =
  (* The first five events are due at step 5, scheduled in this order: a
     crash of 0, an activation of 2, a retirement of 1, an activation of
     1, a crash of 1. Activations and retirements apply in scheduling order,
     then crashes in reverse scheduling order: the activation of 1 finds
     it retired and is dropped, and 1 ends crashed as well as retired. *)
  let rt = Runtime.create ~n:4 () in
  let sink, signals = recording_sink () in
  Runtime.set_sink rt sink;
  List.iter (fun pid -> Runtime.spawn rt ~pid ~name:"spin" spin) [ 0; 1; 3 ];
  let late_ran = Array.make 4 false in
  let late pid () =
    late_ran.(pid) <- true;
    spin ()
  in
  Runtime.crash_at rt ~pid:0 ~step:5;
  Runtime.spawn_at rt ~pid:2 ~at:5 ~name:"join" (late 2);
  Runtime.retire ~at:5 rt ~pid:1;
  Runtime.spawn_at rt ~pid:1 ~at:5 ~name:"join" (late 1);
  Runtime.crash_at rt ~pid:1 ~step:5;
  (* An activation due after its process crashed is dropped. *)
  Runtime.spawn_at rt ~pid:0 ~at:7 ~name:"join" (late 0);
  Runtime.retire ~at:10 rt ~pid:2;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  let sig_t = Alcotest.(list (pair int string)) in
  let show (step, s) =
    ( step,
      match s with
      | Sink.Crash { pid } -> Fmt.str "crash %d" pid
      | Sink.Retire { pid } -> Fmt.str "retire %d" pid
      | _ -> "other" )
  in
  Alcotest.check sig_t "same-step signal order"
    [ 5, "retire 1"; 5, "crash 1"; 5, "crash 0" ]
    (List.map show (signals ()));
  Alcotest.(check bool) "1 ends crashed" true (Runtime.crashed rt ~pid:1);
  Alcotest.(check bool) "1 also retired" true (Runtime.retired rt ~pid:1);
  Alcotest.(check (array bool)) "only the activation of 2 ran"
    [| false; false; true; false |] late_ran;
  (* A crash scheduled for a step that has passed applies at the next
     step, as a crash due then: after that step's retirement of 2. *)
  Runtime.crash_at rt ~pid:2 ~step:3;
  Alcotest.(check bool) "past crash deferred" false (Runtime.crashed rt ~pid:2);
  Runtime.step rt ~pid:3;
  Alcotest.check sig_t "past crash applied at the next step"
    [ 10, "retire 2"; 10, "crash 2" ]
    (List.filteri (fun i _ -> i >= 3) (List.map show (signals ())));
  Alcotest.(check bool) "2 ends crashed" true (Runtime.crashed rt ~pid:2);
  Alcotest.(check (array int)) "only 3 left runnable" [| 3 |]
    (Runtime.runnable_pids rt);
  Runtime.stop rt

(* A parked task tests its condition once per step it is scheduled for,
   never at the step that parks it, and resumes at the first true test.
   Pid 0 runs the parker beside a spinner task, so only every other step
   of pid 0 is the parker's; pid 1 spins. *)
let test_park_tests_once_per_step () =
  let rt = Runtime.create ~seed:7L ~n:2 () in
  let trace = record rt in
  let tested = ref [] in
  let parked_at = ref (-1) and woke_at = ref (-1) in
  let spinner_steps = ref [] in
  Runtime.spawn rt ~pid:0 ~name:"parker" (fun () ->
      parked_at := Runtime.now rt;
      Runtime.park (fun () ->
          tested := Runtime.now rt :: !tested;
          List.length !tested = 6);
      woke_at := Runtime.now rt);
  Runtime.spawn rt ~pid:0 ~name:"spinner" (fun () ->
      while true do
        spinner_steps := Runtime.now rt :: !spinner_steps;
        Runtime.yield ()
      done);
  Runtime.spawn rt ~pid:1 ~name:"spin" spin;
  Runtime.run rt ~policy:(Policy.weighted [| 0, 1.0; 1, 1.0 |]) ~steps:200;
  let tested = List.rev !tested in
  let parker_steps =
    Trace.steps_of trace ~pid:0
    |> List.filter (fun s ->
           s > !parked_at && s <= !woke_at && not (List.mem s !spinner_steps))
  in
  Alcotest.(check (list int)) "one test per parker step after the park"
    parker_steps tested;
  Alcotest.(check int) "woke at the true test" (List.nth tested 5) !woke_at;
  Runtime.stop rt

(* [await] on a condition that holds runs on within the same step. *)
let test_await_true_keeps_step () =
  let rt = Runtime.create ~n:1 () in
  let steps = ref [] in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      steps := Runtime.now rt :: !steps;
      Runtime.await (fun () -> true);
      steps := Runtime.now rt :: !steps;
      Runtime.yield ();
      steps := Runtime.now rt :: !steps);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  Alcotest.(check (list int)) "await true took no step" [ 1; 0; 0 ] !steps;
  Alcotest.(check int) "two steps in all" 2 (Runtime.now rt)

(* A task parked forever, with a second task of its process that
   finishes early; [cleaned] counts unwinds. *)
let spawn_parked rt ~pid cleaned =
  Runtime.spawn rt ~pid ~name:"parked" (fun () ->
      try Runtime.park (fun () -> false)
      with Runtime.Simulation_over as e ->
        incr cleaned;
        raise e);
  Runtime.spawn rt ~pid ~name:"brief" (fun () -> Runtime.yield ())

let test_parked_teardown () =
  let check_case name depart =
    let rt = Runtime.create ~n:3 () in
    let trace = record rt in
    let cleaned = ref 0 in
    spawn_parked rt ~pid:0 cleaned;
    spawn_parked rt ~pid:1 cleaned;
    Runtime.spawn rt ~pid:2 ~name:"spin" spin;
    depart rt;
    Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:30;
    Alcotest.(check int) (name ^ ": pid 0 unwound") 1 !cleaned;
    Alcotest.(check (array int)) (name ^ ": runnable after") [| 1; 2 |]
      (Runtime.runnable_pids rt);
    let before = Runtime.now rt in
    Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:9;
    Alcotest.(check bool) (name ^ ": pid 0 takes no step") true
      (List.for_all (fun s -> s < before)
         (Trace.steps_of trace ~pid:0));
    Runtime.stop rt;
    Alcotest.(check int) (name ^ ": stop unwound pid 1") 2 !cleaned;
    Alcotest.(check (array int)) (name ^ ": nothing runnable after stop") [||]
      (Runtime.runnable_pids rt)
  in
  check_case "crash" (fun rt -> Runtime.crash_at rt ~pid:0 ~step:12);
  check_case "retire" (fun rt -> Runtime.retire ~at:12 rt ~pid:0)

(* The explorer's single-step driver steps a parked task as [run] does. *)
let test_step_drives_parked_task () =
  let rt = Runtime.create ~n:1 () in
  let tests = ref 0 and woke = ref false in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      Runtime.park (fun () ->
          incr tests;
          !tests = 3);
      woke := true);
  Runtime.step rt ~pid:0;
  Alcotest.(check int) "no test at the parking step" 0 !tests;
  Runtime.step rt ~pid:0;
  Runtime.step rt ~pid:0;
  Alcotest.(check (pair int bool)) "two false tests" (2, false) (!tests, !woke);
  Runtime.step rt ~pid:0;
  Alcotest.(check (pair int bool)) "third test wakes" (3, true) (!tests, !woke);
  Alcotest.(check (array int)) "finished" [||] (Runtime.runnable_pids rt)

exception Condition_failed

(* A condition runs outside its fiber; when it raises, the exception
   still names the task. *)
let test_raising_condition_names_task () =
  let rt = Runtime.create ~n:1 () in
  Runtime.spawn rt ~pid:0 ~name:"doomed" (fun () ->
      Runtime.park (fun () -> raise Condition_failed));
  let stderr_copy = Unix.dup Unix.stderr in
  let path = Filename.temp_file "park" ".err" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Format.pp_print_flush Format.err_formatter ();
  Unix.dup2 fd Unix.stderr;
  let raised =
    match Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:5 with
    | () -> false
    | exception Condition_failed -> true
  in
  Format.pp_print_flush Format.err_formatter ();
  Unix.dup2 stderr_copy Unix.stderr;
  Unix.close fd;
  Unix.close stderr_copy;
  let report = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "the condition's exception propagates" true raised;
  let prefix = "task \"doomed\" (pid 0) raised: " in
  Alcotest.(check string) "stderr names the task" prefix
    (String.sub report 0 (Int.min (String.length prefix) (String.length report)))

(* Random waiters: 2–3 processes of 1–2 tasks, each a list of waits
   (until the clock passes a threshold, a countdown that decrements on
   every test, or until all tasks together finished some number of
   actions), calls and yields, with crashes. [Parked] runs them on
   [await]/[park]; [Looping] on the yield loops they replace. *)
type wait_action =
  | Until_step of int * bool  (* steps from now; true: [park] *)
  | Countdown of int * bool  (* tests until true; true: [park] *)
  | Until_done of int * bool  (* actions finished by everyone; true: [park] *)
  | Wait_call
  | Wait_yield

type wait_program = {
  tasks : wait_action list list array;  (* per process, per task *)
  w_crashes : int option array;
  w_seed : int;
}

let gen_wait_program =
  let open QCheck.Gen in
  let* n = int_range 2 3 in
  let action =
    frequency
      [
        3, map2 (fun d p -> Until_step (d, p)) (int_range 0 12) bool;
        3, map2 (fun c p -> Countdown (c, p)) (int_range 1 6) bool;
        2, map2 (fun k p -> Until_done (k, p)) (int_range 0 10) bool;
        2, return Wait_call;
        1, return Wait_yield;
      ]
  in
  let task = list_size (int_range 1 6) action in
  let* tasks = array_repeat n (list_size (int_range 1 2) task) in
  let* w_crashes = array_repeat n (opt ~ratio:0.3 (int_bound 60)) in
  let* w_seed = int_bound 1_000_000 in
  return { tasks; w_crashes; w_seed }

let print_wait_program p =
  let kind park = if park then "park" else "await" in
  let action = function
    | Until_step (d, park) -> Fmt.str "%s now+%d" (kind park) d
    | Countdown (c, park) -> Fmt.str "%s countdown %d" (kind park) c
    | Until_done (k, park) -> Fmt.str "%s done>=%d" (kind park) k
    | Wait_call -> "call"
    | Wait_yield -> "yield"
  in
  Fmt.str "seed=%d@.%a" p.w_seed
    Fmt.(
      array ~sep:cut (fun ppf (pid, tasks, crash) ->
          Fmt.pf ppf "p%d crash=%a: %a" pid (option ~none:(any "-") int) crash
            (list ~sep:(any " | ") (list ~sep:comma string))
            (List.map (List.map action) tasks)))
    (Array.mapi (fun pid tasks -> pid, tasks, p.w_crashes.(pid)) p.tasks)

type wait_mode = Parked | Looping

(* Run [p] under [mode] and return the trace's fingerprint and the sink's
   event stream. *)
let run_wait_program mode p =
  let n = Array.length p.tasks in
  let rt = Runtime.create ~seed:(Int64.of_int p.w_seed) ~n () in
  let trace = Trace.create () in
  let events = ref [] in
  let log e = events := e :: !events in
  Runtime.set_sink rt
    (Sink.tee (Trace.recorder trace)
       {
         Sink.active = true;
         on_step =
           (fun ~step ~pid ~layer:_ -> log (Fmt.str "step %d p%d" step pid));
         on_invoke =
           (fun ~step ~pid ~obj:_ ~op:_ ->
             log (Fmt.str "invoke %d p%d" step pid));
         on_respond =
           (fun ~step ~pid ~layer:_ ~obj:_ ~op:_ ~invoked ~overlapped
                ~result:_ ->
             log (Fmt.str "respond %d p%d %d %b" step pid invoked overlapped));
         on_signal =
           (fun ~step ~pid _ -> log (Fmt.str "signal %d p%d" step pid));
       });
  let obj = Runtime.register_object rt ~name:"o" ~respond:(fun _ -> Value.Unit) in
  let finished = ref 0 in
  let wait park cond =
    match mode, park with
    | Parked, false -> Runtime.await cond
    | Parked, true -> Runtime.park cond
    | Looping, park ->
      if park then Runtime.yield ();
      while not (cond ()) do
        Runtime.yield ()
      done
  in
  let perform = function
    | Until_step (d, park) ->
      let due = Runtime.now rt + d in
      wait park (fun () -> Runtime.now rt >= due)
    | Countdown (c, park) ->
      let left = ref c in
      wait park (fun () ->
          decr left;
          !left <= 0)
    | Until_done (k, park) -> wait park (fun () -> !finished >= k)
    | Wait_call -> ignore (Runtime.call obj Value.read_op : Value.t)
    | Wait_yield -> Runtime.yield ()
  in
  Array.iteri
    (fun pid tasks ->
      List.iter
        (fun actions ->
          Runtime.spawn rt ~pid ~name:"t" (fun () ->
              List.iter
                (fun a ->
                  perform a;
                  incr finished)
                actions))
        tasks)
    p.tasks;
  Array.iteri
    (fun pid -> Option.iter (fun step -> Runtime.crash_at rt ~pid ~step))
    p.w_crashes;
  Runtime.run rt ~policy:(Policy.weighted (Array.init n (fun pid -> pid, 1.0)))
    ~steps:80;
  Runtime.stop rt;
  Trace.fingerprint trace, List.rev !events

let qcheck_parked_matches_yield_loop =
  QCheck.Test.make ~name:"parked waits match yield loops" ~count:300
    (QCheck.make ~print:print_wait_program gen_wait_program)
    (fun p -> run_wait_program Parked p = run_wait_program Looping p)

(* Minor-heap words per step of a 2-process run of [body] (default: a
   yield-only loop), after [setup] has scheduled whatever it likes on the
   fresh runtime, measured after [warmup] steps. *)
let words_per_step ?(body = spin) ?(warmup = 100) setup =
  let rt = Runtime.create ~n:2 () in
  Runtime.spawn rt ~pid:0 ~name:"spin" body;
  Runtime.spawn rt ~pid:1 ~name:"spin" body;
  setup rt;
  let policy = Policy.round_robin () in
  Runtime.run rt ~policy ~steps:warmup;
  let steps = 20_000 in
  let before = Gc.minor_words () in
  Runtime.run rt ~policy ~steps;
  let words = Gc.minor_words () -. before in
  Runtime.stop rt;
  words /. float_of_int steps

let test_pending_events_allocation_guard () =
  (* Pending membership events must not cost anything per step until they
     are due: the queue is checked at its head only. *)
  let far = 1_000_000_000 in
  let idle = words_per_step ignore in
  let pending =
    words_per_step (fun rt ->
        Runtime.crash_at rt ~pid:0 ~step:far;
        Runtime.retire ~at:far rt ~pid:1;
        Runtime.spawn_at rt ~pid:0 ~at:far ~name:"join" spin)
  in
  if pending <> idle then
    Alcotest.failf "%.2f words/step with events pending, %.2f without" pending
      idle

let test_yield_step_allocation_guard () =
  (* A yield-only step boxes its continuation and nothing else: no option
     around the pick, no closure for the task search or the effect. *)
  let words = words_per_step ignore in
  if words > 8.0 then
    Alcotest.failf "a yield-only step allocates %.2f words, more than 8" words

let test_parked_step_allocation_guard () =
  (* A step of a parked task whose condition is false tests the condition
     and nothing else: no fiber is resumed, so no continuation is boxed. *)
  let never () = false in
  let words = words_per_step ~body:(fun () -> Runtime.park never) ignore in
  Alcotest.(check (float 0.0)) "words a parked step allocates" 0.0 words

(* Minor-heap words per step of one process calling an object that
   answers every operation with [Unit]. After the first, every step both
   responds to one call and invokes the next. [setup] and [warmup] are as
   for [words_per_step]. *)
let solo_call_words_per_step ?(warmup = 100) setup =
  let rt = Runtime.create ~n:1 () in
  let obj =
    Runtime.register_object rt ~name:"nop" ~respond:(fun _ -> Value.Unit)
  in
  Runtime.spawn rt ~pid:0 ~name:"caller" (fun () ->
      while true do
        ignore (Runtime.call obj Value.Unit : Value.t)
      done);
  setup rt;
  let policy = Policy.round_robin () in
  Runtime.run rt ~policy ~steps:warmup;
  let steps = 20_000 in
  let before = Gc.minor_words () in
  Runtime.run rt ~policy ~steps;
  let words = Gc.minor_words () -. before in
  Runtime.stop rt;
  words /. float_of_int steps

let test_call_step_allocation_guard () =
  (* Both steps box one continuation in one task state, so their
     difference is what a call adds, whatever size the OCaml runtime gives
     a continuation: pinned at 18, the context handed to [respond] (7),
     the call's pending record (7) and the performed [Call] effect (4: an
     extension constructor's block carries the constructor as well as
     its two arguments). The pick, the task search, the handler and the
     per-object counters allocate nothing. *)
  let yield = words_per_step ignore in
  Alcotest.(check (float 0.0)) "words a call adds to a step" 18.0
    (solo_call_words_per_step ignore -. yield)

(* The trace is one more sink, and recording a step, an invocation or a
   response writes ints into the trace's off-heap arrays: a recorder adds
   no minor-heap word to a yield step or a call step. The warm-up of 40,000
   steps grows those arrays past what the measured 20,000 steps fill (64Ki
   steps, 128Ki events, the call step recording two), so no growth falls
   inside the window. *)
let test_recorder_allocation_guard () =
  let warmup = 40_000 in
  let attach rt = ignore (record rt : Trace.t) in
  Alcotest.(check (float 0.0)) "words a recorder adds to a yield step"
    (words_per_step ~warmup ignore)
    (words_per_step ~warmup attach);
  Alcotest.(check (float 0.0)) "words a recorder adds to a call step"
    (solo_call_words_per_step ~warmup ignore)
    (solo_call_words_per_step ~warmup attach)

(* Trace index i is runtime step i: a recorder attached after step 0
   refuses its first step instead of shifting every later index. *)
let test_late_recorder_raises () =
  let rt = Runtime.create ~n:1 () in
  Runtime.spawn rt ~pid:0 ~name:"spin" spin;
  let policy = Policy.round_robin () in
  Runtime.run rt ~policy ~steps:3;
  let trace = record rt in
  (match Runtime.run rt ~policy ~steps:1 with
  | () -> Alcotest.fail "a recorder attached at step 3 recorded step 3"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "nothing recorded" 0 (Trace.length trace);
  Runtime.stop rt

(* Minor-heap words per step of one monitor A(0,1)'s machines over a
   shared register, with both inputs on and [crash] naming the process to
   crash at step 200. Crashing p leaves q's heartbeat machine alone, each
   step answering one write and invoking the next. Crashing q leaves p's
   watcher machine alone: its next read finds the counter stalled, charges
   the fault, and [adapt] sets a timeout the run never reaches, so every
   later step is an idle tick. *)
let monitor_machine_words_per_step ~crash =
  let rt = Runtime.create ~n:2 () in
  let mon =
    Tbwf_monitor.Activity_monitor.install
      ~adapt:(fun _ -> 1_000_000_000)
      rt ~p:0 ~q:1
  in
  mon.monitoring := true;
  mon.active_for := true;
  Runtime.crash_at rt ~pid:crash ~step:200;
  let policy = Policy.round_robin () in
  Runtime.run rt ~policy ~steps:1_000;
  let steps = 20_000 in
  let before = Gc.minor_words () in
  Runtime.run rt ~policy ~steps;
  let words = Gc.minor_words () -. before in
  Runtime.stop rt;
  words /. float_of_int steps

let test_monitor_machine_allocation_guard () =
  (* An idle watcher tick is a closure call, a decrement and a constant
     action: 0 words, like a parked fiber. A heartbeat write step pays for
     its operation only: the counter's [Value.Int] (2), the write pair
     (3), [M_call] (3), the pending record (7) and the [respond] context
     (7). A boxed pc or a closure per step moves either figure. *)
  Alcotest.(check (float 0.0)) "words an idle watcher step allocates" 0.0
    (monitor_machine_words_per_step ~crash:1);
  Alcotest.(check (float 0.0)) "words a heartbeat write step allocates" 22.0
    (monitor_machine_words_per_step ~crash:0)

(* Minor-heap words per step of a two-process run round robin: 1,000 steps,
   then twice [settle] and 100 steps, then 20,000 measured steps. *)
let omega_words_per_step ?(settle = ignore) rt =
  let policy = Policy.round_robin () in
  Runtime.run rt ~policy ~steps:1_000;
  for _ = 1 to 2 do
    settle ();
    Runtime.run rt ~policy ~steps:100
  done;
  let steps = 20_000 in
  let before = Gc.minor_words () in
  Runtime.run rt ~policy ~steps;
  let words = Gc.minor_words () -. before in
  Runtime.stop rt;
  words /. float_of_int steps

(* Process 0 competes alone; once it has elected itself, A(0,1) stops
   monitoring, so its status returns to Unknown and stays there (only a
   join switches it back on), and A(1,0) stops being asked for beats. The
   second [settle] undoes the advertising an election still in progress at
   the first one switched back on. Every task then idles: process 0's
   election loop waits on A(0,1). *)
let wait_on_unknown rt ~handles ~monitors =
  let open Tbwf_monitor in
  let monitor p q = Option.get monitors.(p).(q) in
  handles.(0).Tbwf_omega.Omega_spec.candidate := true;
  let settle () =
    (monitor 0 1).Activity_monitor.monitoring := false;
    (monitor 1 0).Activity_monitor.active_for := false
  in
  let words = omega_words_per_step ~settle rt in
  Alcotest.(check bool) "A(0,1) offers no estimate" true
    (Activity_monitor.equal_status
       !((monitor 0 1).Activity_monitor.status)
       Activity_monitor.Unknown);
  Alcotest.(check bool) "process 0 elected itself" true
    (Tbwf_omega.Omega_spec.leads !(handles.(0).Tbwf_omega.Omega_spec.leader) 0);
  words

let test_omega_machine_allocation_guard () =
  (* An idle Ω∆ step is a closure call, a test and a constant action: 0
     words, like an idle watcher tick. Every task of these runs idles: the
     monitors' machines too, since no election loop switches them on. A
     boxed pc, a closure per step or a list walk moves the figure. *)
  let open Tbwf_omega in
  let fresh () = Runtime.create ~n:2 () in
  let awaiting_candidacy =
    [
      ( "Figure 3",
        fun rt -> ignore (Omega_registers.install rt : Omega_registers.t) );
      ( "Figures 4-6",
        fun rt ->
          ignore
            (Omega_abortable.install rt
               ~policy:Tbwf_registers.Abort_policy.Always ()
              : Omega_abortable.t) );
      ( "naive booster",
        fun rt ->
          ignore
            (Tbwf_core.Baselines.Naive_booster.install rt
              : Tbwf_core.Baselines.Naive_booster.t) );
    ]
  in
  List.iter
    (fun (name, install) ->
      let rt = fresh () in
      install rt;
      Alcotest.(check (float 0.0))
        (name ^ ": words a step awaiting candidacy allocates") 0.0
        (omega_words_per_step rt))
    awaiting_candidacy;
  (let rt = fresh () in
   let t = Omega_registers.install rt in
   Alcotest.(check (float 0.0))
     "Figure 3: words a step waiting on an Unknown monitor allocates" 0.0
     (wait_on_unknown rt ~handles:t.Omega_registers.handles
        ~monitors:t.Omega_registers.monitors));
  let rt = fresh () in
  let t = Tbwf_core.Baselines.Naive_booster.install rt in
  Alcotest.(check (float 0.0))
    "naive booster: words a step waiting on an Unknown monitor allocates" 0.0
    (wait_on_unknown rt ~handles:t.Tbwf_core.Baselines.Naive_booster.handles
       ~monitors:t.Tbwf_core.Baselines.Naive_booster.monitors)

(* One Figure 7 client machine on pid 0 of a one-process runtime over a
   direct QA counter, with no Ω∆ installed: its leader view stays where
   [leader] puts it. Minor-heap words per step, measured as for
   [omega_words_per_step]. *)
let client_machine_words_per_step ~canonical ~leader =
  let open Tbwf_core in
  let rt = Runtime.create ~n:1 () in
  let handles = [| Tbwf_omega.Omega_spec.make_handle ~pid:0 |] in
  handles.(0).Tbwf_omega.Omega_spec.leader := leader;
  let qa =
    Tbwf_objects.Qa_object.create rt ~name:"qa"
      ~spec:Tbwf_objects.Counter.spec
      ~policy:Tbwf_registers.Abort_policy.Always ()
  in
  let tbwf = Tbwf.make ~qa ~omega_handles:handles ~canonical () in
  let stats = Workload.fresh_stats ~n:1 in
  Tbwf.spawn_clients rt ~gate:(Some tbwf) ~qa ~pids:[ 0 ] ~stats
    ~next_op:(Workload.forever Tbwf_objects.Counter.inc);
  let words = omega_words_per_step rt in
  (words, stats.Workload.completed.(0))

let test_client_machine_allocation_guard () =
  (* A step waiting for leadership is a closure call, a test and a
     constant action: 0 words, like an idle Ω∆ step. A boxed pc, a closure
     per step or a scratch ref moves the figure. *)
  let waiting, completed =
    client_machine_words_per_step ~canonical:true
      ~leader:Tbwf_omega.Omega_spec.No_leader
  in
  Alcotest.(check int) "a client that never leads completes nothing" 0
    completed;
  Alcotest.(check (float 0.0)) "words a step waiting for leadership allocates"
    0.0 waiting;
  (* A solo leader's every step answers one increment and invokes the
     next. It pays for the operation ([Pair (Str "apply", op)] 3, [M_call]
     3, the pending record 7, the [respond] context 7), the counter's
     answer (the [Some] around its state/response pair 2 + 3, the new
     state's and the response's [Value.Int] 2 + 2, the [Took_effect] fate
     2), the completion ([Some response] 2) and [Workload.forever]'s
     [Some op] 2: 35 words. *)
  let calling, completed =
    client_machine_words_per_step ~canonical:false
      ~leader:(Tbwf_omega.Omega_spec.Leader 0)
  in
  Alcotest.(check bool) "the solo leader completes every step" true
    (completed > 20_000);
  Alcotest.(check (float 0.0)) "words a call step allocates" 35.0 calling

(* Random programs: 2–4 processes, each calling 1–3 shared objects or
   yielding, some crashing mid-run; a final [stop] drops the calls still
   in flight. *)
type program = {
  objects : int;
  bodies : [ `Call of int | `Yield ] list array;  (* one per process *)
  crash_steps : int option array;
  weights : float array;  (* scheduling weight per process *)
  seed : int;
}

let gen_program =
  let open QCheck.Gen in
  let* n = int_range 2 4 in
  let* objects = int_range 1 3 in
  let action =
    frequency
      [ 3, map (fun k -> `Call k) (int_bound (objects - 1)); 1, return `Yield ]
  in
  let* bodies = array_repeat n (list_size (int_range 1 10) action) in
  let* crash_steps = array_repeat n (opt ~ratio:0.3 (int_bound 40)) in
  let* weights = array_repeat n (float_range 0.2 3.0) in
  let* seed = int_bound 1_000_000 in
  return { objects; bodies; crash_steps; weights; seed }

let print_program p =
  let action = function `Call k -> Fmt.str "call %d" k | `Yield -> "yield" in
  Fmt.str "objects=%d seed=%d@.%a" p.objects p.seed
    Fmt.(
      array ~sep:cut (fun ppf (pid, body, crash, weight) ->
          Fmt.pf ppf "p%d w=%.2f crash=%a: %a" pid weight
            (option ~none:(any "-") int) crash
            (list ~sep:comma string) (List.map action body)))
    (Array.mapi
       (fun pid body -> pid, body, p.crash_steps.(pid), p.weights.(pid))
       p.bodies)

(* Run [p] and return (pid, respond step, overlapped, step contended) of
   every response in order, and the run's operation events. *)
let run_program p =
  let n = Array.length p.bodies in
  let rt = Runtime.create ~seed:(Int64.of_int p.seed) ~n () in
  let trace = record rt in
  let answered = ref [] in
  let objs =
    Array.init p.objects (fun k ->
        Runtime.register_object rt ~name:(Fmt.str "o%d" k) ~respond:(fun ctx ->
            answered :=
              Shared.(ctx.pid, ctx.respond_step, ctx.overlapped,
                      ctx.step_contended)
              :: !answered;
            Value.Unit))
  in
  Array.iteri
    (fun pid body ->
      Runtime.spawn rt ~pid ~name:"t" (fun () ->
          List.iter
            (function
              | `Call k -> ignore (Runtime.call objs.(k) Value.read_op : Value.t)
              | `Yield -> Runtime.yield ())
            body))
    p.bodies;
  Array.iteri
    (fun pid -> Option.iter (fun step -> Runtime.crash_at rt ~pid ~step))
    p.crash_steps;
  Runtime.run rt
    ~policy:(Policy.weighted (Array.mapi (fun pid w -> pid, w) p.weights))
    ~steps:30;
  Runtime.stop rt;
  List.rev !answered, Trace.ops trace

(* The same answers from the trace alone: an operation's window runs from
   its invocation event to its response event, or to the end of the run
   if it has none. Two operations on one object overlap iff their windows
   intersect; an operation is step-contended iff another operation's
   event on its object falls strictly inside its window. Positions in the
   event list order events within a step. *)
let reference_answers events =
  let events = Array.of_list events in
  let ops = ref [] in
  Array.iteri
    (fun i (e : Trace.op_event) ->
      match e.phase with
      | `Invoke -> ops := (e.pid, e.obj_id, i, ref max_int, ref (-1)) :: !ops
      | `Respond _ ->
        let _, _, _, resp, step =
          List.find
            (fun (pid, obj, _, resp, _) ->
              pid = e.pid && obj = e.obj_id && !resp = max_int)
            !ops
        in
        resp := i;
        step := e.step)
    events;
  let ops = List.rev !ops in
  let answered =
    List.filter (fun (_, _, _, resp, _) -> !resp < max_int) ops
    |> List.sort (fun (_, _, _, a, _) (_, _, _, b, _) -> compare !a !b)
  in
  List.map
    (fun ((pid, obj, inv, resp, step) as op) ->
      let overlapped =
        List.exists
          (fun ((_, obj', inv', resp', _) as other) ->
            other != op && obj' = obj && inv' < !resp && inv < !resp')
          ops
      in
      let contended = ref false in
      for i = inv + 1 to !resp - 1 do
        if events.(i).Trace.obj_id = obj then contended := true
      done;
      pid, !step, overlapped, !contended)
    answered

let qcheck_overlap_matches_trace =
  QCheck.Test.make ~name:"overlap flags match trace windows" ~count:300
    (QCheck.make ~print:print_program gen_program)
    (fun p ->
      let answered, events = run_program p in
      answered = reference_answers events)

let () =
  Alcotest.run "runtime"
    [
      ( "unit",
        [
          Alcotest.test_case "single task completes" `Quick
            test_single_task_runs_to_completion;
          Alcotest.test_case "op spans two steps" `Quick
            test_register_op_spans_two_steps;
          Alcotest.test_case "solo ops not overlapped" `Quick
            test_solo_ops_not_overlapped;
          Alcotest.test_case "interleaved ops overlap" `Quick
            test_interleaved_ops_overlap;
          Alcotest.test_case "pending op overlaps without contending" `Quick
            test_pending_op_overlaps_but_does_not_contend;
          Alcotest.test_case "crash stops process" `Quick test_crash_stops_process;
          Alcotest.test_case "crash resolves pending op" `Quick
            test_crash_resolves_pending_op;
          Alcotest.test_case "settled calls leave no overlap" `Quick
            test_settled_calls_leave_no_overlap;
          Alcotest.test_case "multi-task round robin" `Quick
            test_multi_task_round_robin;
          Alcotest.test_case "one pid's overlapping spans" `Quick
            test_one_pid_overlapping_spans;
          Alcotest.test_case "self" `Quick test_self;
          Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
          Alcotest.test_case "await" `Quick test_await;
          Alcotest.test_case "stop unwinds tasks" `Quick test_stop_unwinds_tasks;
          Alcotest.test_case "spawn during run" `Quick test_spawn_during_run;
          Alcotest.test_case "idle steps advance time" `Quick
            test_idle_steps_advance_time;
          Alcotest.test_case "tee skips nil callbacks" `Quick
            test_tee_skips_nil_callbacks;
          Alcotest.test_case "same-step event order" `Quick
            test_same_step_event_order;
          Alcotest.test_case "pending events allocation guard" `Quick
            test_pending_events_allocation_guard;
          Alcotest.test_case "yield step allocation guard" `Quick
            test_yield_step_allocation_guard;
          Alcotest.test_case "call step allocation guard" `Quick
            test_call_step_allocation_guard;
          Alcotest.test_case "recorder allocation guard" `Quick
            test_recorder_allocation_guard;
          Alcotest.test_case "a late recorder raises" `Quick
            test_late_recorder_raises;
          Alcotest.test_case "parked step allocation guard" `Quick
            test_parked_step_allocation_guard;
          Alcotest.test_case "monitor machine allocation guard" `Quick
            test_monitor_machine_allocation_guard;
          Alcotest.test_case "omega machine allocation guard" `Quick
            test_omega_machine_allocation_guard;
          Alcotest.test_case "client machine allocation guard" `Quick
            test_client_machine_allocation_guard;
          QCheck_alcotest.to_alcotest qcheck_overlap_matches_trace;
        ] );
      ( "park",
        [
          Alcotest.test_case "one test per step, none when parking" `Quick
            test_park_tests_once_per_step;
          Alcotest.test_case "await on a true condition keeps the step" `Quick
            test_await_true_keeps_step;
          Alcotest.test_case "crash, retire and stop unwind parked tasks"
            `Quick test_parked_teardown;
          Alcotest.test_case "step drives a parked task" `Quick
            test_step_drives_parked_task;
          Alcotest.test_case "a raising condition names its task" `Quick
            test_raising_condition_names_task;
          QCheck_alcotest.to_alcotest qcheck_parked_matches_yield_loop;
        ] );
    ]
