open Tbwf_sim

let test_record_and_query () =
  let t = Trace.create () in
  List.iter (fun pid -> Trace.record_step t ~pid) [ 0; 1; 2; 0; 1; 0 ];
  Alcotest.(check int) "length" 6 (Trace.length t);
  Alcotest.(check int) "pid_at 0" 0 (Trace.pid_at t 0);
  Alcotest.(check int) "pid_at 2" 2 (Trace.pid_at t 2);
  Alcotest.(check (list int)) "steps_of 0" [ 0; 3; 5 ] (Trace.steps_of t ~pid:0);
  Alcotest.(check (list int)) "steps_of 1" [ 1; 4 ] (Trace.steps_of t ~pid:1)

let test_pid_at_bounds () =
  let t = Trace.create () in
  Trace.record_step t ~pid:0;
  Alcotest.(check bool) "negative index rejected" true
    (try
       ignore (Trace.pid_at t (-1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "past-end rejected" true
    (try
       ignore (Trace.pid_at t 1);
       false
     with Invalid_argument _ -> true)

let test_growth () =
  let t = Trace.create () in
  for i = 0 to 5_000 do
    Trace.record_step t ~pid:(i mod 7)
  done;
  Alcotest.(check int) "survives growth" 5_001 (Trace.length t);
  Alcotest.(check int) "late entry correct" (5_000 mod 7)
    (Trace.pid_at t 5_000)

let op_event ~step ~pid ~obj_name ~op ~phase =
  { Trace.step; pid; obj_id = 0; obj_name; op; phase }

let test_writes_in_window () =
  let t = Trace.create () in
  let w pid step result =
    Trace.record_op t
      (op_event ~step ~pid ~obj_name:"Reg[1]" ~op:(Value.write_op (Value.Int 1))
         ~phase:(`Respond result))
  in
  w 0 10 Value.Unit;
  w 0 20 Value.Unit;
  w 1 30 Value.Abort;
  (* aborted write must not count *)
  w 2 40 Value.Unit;
  Trace.record_op t
    (op_event ~step:15 ~pid:3 ~obj_name:"Reg[1]" ~op:Value.read_op
       ~phase:(`Respond (Value.Int 0)));
  (* reads must not count *)
  Trace.record_op t
    (op_event ~step:25 ~pid:4 ~obj_name:"Other" ~op:(Value.write_op Value.Unit)
       ~phase:(`Respond Value.Unit));
  (* other prefix must not count when filtering *)
  let counts = Trace.writes_in_window t ~obj_prefix:"Reg" ~from_step:0 ~to_step:100 in
  Alcotest.(check (option int)) "pid 0 wrote twice" (Some 2)
    (Hashtbl.find_opt counts 0);
  Alcotest.(check (option int)) "pid 1 aborted write not counted" None
    (Hashtbl.find_opt counts 1);
  Alcotest.(check (option int)) "pid 2 wrote once" (Some 1)
    (Hashtbl.find_opt counts 2);
  Alcotest.(check (option int)) "pid 3 read not counted" None
    (Hashtbl.find_opt counts 3);
  Alcotest.(check (option int)) "other object filtered" None
    (Hashtbl.find_opt counts 4);
  let windowed = Trace.writes_in_window t ~obj_prefix:"Reg" ~from_step:15 ~to_step:35 in
  Alcotest.(check (option int)) "window restricts" (Some 1)
    (Hashtbl.find_opt windowed 0)

let test_ops_order () =
  let t = Trace.create () in
  for step = 1 to 5 do
    Trace.record_op t
      (op_event ~step ~pid:0 ~obj_name:"x" ~op:Value.read_op ~phase:`Invoke)
  done;
  let steps = List.map (fun ev -> ev.Trace.step) (Trace.ops t) in
  Alcotest.(check (list int)) "chronological" [ 1; 2; 3; 4; 5 ] steps

let steps_of_events evs = List.map (fun ev -> ev.Trace.step) evs

let test_ops_from_empty () =
  let t = Trace.create () in
  Alcotest.(check int) "empty n_ops" 0 (Trace.n_ops t);
  Alcotest.(check (list int)) "empty from 0" []
    (steps_of_events (Trace.ops_from t 0));
  Alcotest.(check (list int)) "empty, mark past end" []
    (steps_of_events (Trace.ops_from t 7))

let test_ops_from_past_end () =
  let t = Trace.create () in
  Trace.record_op t
    (op_event ~step:1 ~pid:0 ~obj_name:"x" ~op:Value.read_op ~phase:`Invoke);
  Alcotest.(check (list int)) "mark = n_ops is empty" []
    (steps_of_events (Trace.ops_from t (Trace.n_ops t)));
  Alcotest.(check (list int)) "mark beyond n_ops is empty" []
    (steps_of_events (Trace.ops_from t (Trace.n_ops t + 3)))

let test_ops_from_interleaved () =
  let t = Trace.create () in
  let record step =
    Trace.record_op t
      (op_event ~step ~pid:0 ~obj_name:"x" ~op:Value.read_op ~phase:`Invoke)
  in
  record 1;
  record 2;
  let mark1 = Trace.n_ops t in
  Alcotest.(check int) "mark after two" 2 mark1;
  record 3;
  let mark2 = Trace.n_ops t in
  record 4;
  record 5;
  (* Earlier mark still sees everything since it was taken, a later mark
     only its own suffix; old marks are never invalidated by new events. *)
  Alcotest.(check (list int)) "since mark1" [ 3; 4; 5 ]
    (steps_of_events (Trace.ops_from t mark1));
  Alcotest.(check (list int)) "since mark2" [ 4; 5 ]
    (steps_of_events (Trace.ops_from t mark2));
  Alcotest.(check (list int)) "from zero sees all" [ 1; 2; 3; 4; 5 ]
    (steps_of_events (Trace.ops_from t 0))

(* The fingerprint is the replay-determinism witness: explorer and nemesis
   tests compare runs by fingerprint equality, so its exact rendering is a
   compatibility surface. Pin it to a golden string. *)
let test_fingerprint_golden () =
  let t = Trace.create () in
  List.iter (fun pid -> Trace.record_step t ~pid) [ 0; 1; -1 ];
  Trace.record_op t
    (op_event ~step:1 ~pid:0 ~obj_name:"x" ~op:Value.read_op ~phase:`Invoke);
  Trace.record_op t
    { Trace.step = 2; pid = 1; obj_id = 2; obj_name = "Reg[0]";
      op = Value.write_op (Value.Int 7); phase = `Respond Value.Abort };
  let expected =
    "sched:0,1,-1,\n" ^ "ops:\n"
    ^ "1 0 0 x (\"read\", ()) I\n"
    ^ "2 1 2 Reg[0] (\"write\", 7) R \xe2\x8a\xa5\n"
  in
  Alcotest.(check string) "golden fingerprint" expected (Trace.fingerprint t)

let test_fingerprint_distinguishes () =
  let a = Trace.create () and b = Trace.create () in
  Trace.record_step a ~pid:0;
  Trace.record_step b ~pid:0;
  Alcotest.(check string) "same prefix agrees" (Trace.fingerprint a)
    (Trace.fingerprint b);
  Trace.record_step b ~pid:1;
  Alcotest.(check bool) "extra step differs" false
    (String.equal (Trace.fingerprint a) (Trace.fingerprint b))

let () =
  Alcotest.run "trace"
    [
      ( "unit",
        [
          Alcotest.test_case "record and query" `Quick test_record_and_query;
          Alcotest.test_case "pid_at bounds" `Quick test_pid_at_bounds;
          Alcotest.test_case "buffer growth" `Quick test_growth;
          Alcotest.test_case "writes_in_window" `Quick test_writes_in_window;
          Alcotest.test_case "ops chronological" `Quick test_ops_order;
        ] );
      ( "marks",
        [
          Alcotest.test_case "ops_from empty trace" `Quick test_ops_from_empty;
          Alcotest.test_case "ops_from past end" `Quick test_ops_from_past_end;
          Alcotest.test_case "ops_from interleaved marks" `Quick
            test_ops_from_interleaved;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "golden string" `Quick test_fingerprint_golden;
          Alcotest.test_case "distinguishes runs" `Quick
            test_fingerprint_distinguishes;
        ] );
    ]
