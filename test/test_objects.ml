open Tbwf_sim
open Tbwf_registers
open Tbwf_objects

let value = Alcotest.testable Value.pp Value.equal

let apply spec state op = Seq_spec.apply_exn spec state op

(* --- sequential specs --------------------------------------------------- *)

let test_counter_spec () =
  let s0 = Counter.spec.Seq_spec.initial in
  let s1, r1 = apply Counter.spec s0 Counter.inc in
  Alcotest.check value "inc returns old" (Value.Int 0) r1;
  let s2, r2 = apply Counter.spec s1 (Counter.add 5) in
  Alcotest.check value "add returns old" (Value.Int 1) r2;
  let _, r3 = apply Counter.spec s2 Counter.read in
  Alcotest.check value "read" (Value.Int 6) r3

let test_stack_spec () =
  let s = Stack_obj.spec.Seq_spec.initial in
  let s, _ = apply Stack_obj.spec s (Stack_obj.push (Value.Int 1)) in
  let s, _ = apply Stack_obj.spec s (Stack_obj.push (Value.Int 2)) in
  let s, top = apply Stack_obj.spec s Stack_obj.pop in
  Alcotest.check value "LIFO" (Value.Int 2) top;
  let s, next = apply Stack_obj.spec s Stack_obj.pop in
  Alcotest.check value "then first" (Value.Int 1) next;
  let _, empty = apply Stack_obj.spec s Stack_obj.pop in
  Alcotest.check value "empty sentinel" Stack_obj.empty_response empty

let test_queue_spec () =
  let s = Queue_obj.spec.Seq_spec.initial in
  let s, _ = apply Queue_obj.spec s (Queue_obj.enqueue (Value.Int 1)) in
  let s, _ = apply Queue_obj.spec s (Queue_obj.enqueue (Value.Int 2)) in
  let s, first = apply Queue_obj.spec s Queue_obj.dequeue in
  Alcotest.check value "FIFO" (Value.Int 1) first;
  let s, second = apply Queue_obj.spec s Queue_obj.dequeue in
  Alcotest.check value "then second" (Value.Int 2) second;
  let _, empty = apply Queue_obj.spec s Queue_obj.dequeue in
  Alcotest.check value "empty sentinel" Queue_obj.empty_response empty

let test_set_spec () =
  let s = Set_obj.spec.Seq_spec.initial in
  let s, r1 = apply Set_obj.spec s (Set_obj.add 3) in
  Alcotest.check value "fresh add" (Value.Bool true) r1;
  let s, r2 = apply Set_obj.spec s (Set_obj.add 3) in
  Alcotest.check value "duplicate add" (Value.Bool false) r2;
  let s, r3 = apply Set_obj.spec s (Set_obj.mem 3) in
  Alcotest.check value "mem" (Value.Bool true) r3;
  let s, r4 = apply Set_obj.spec s (Set_obj.remove 3) in
  Alcotest.check value "remove" (Value.Bool true) r4;
  let _, r5 = apply Set_obj.spec s Set_obj.size in
  Alcotest.check value "size" (Value.Int 0) r5

let test_kv_spec () =
  let s = Kv_store.spec.Seq_spec.initial in
  let s, r1 = apply Kv_store.spec s (Kv_store.put "k" (Value.Int 1)) in
  Alcotest.(check (option (of_pp Value.pp))) "no previous binding" None
    (Kv_store.decode_binding r1);
  let s, r2 = apply Kv_store.spec s (Kv_store.put "k" (Value.Int 2)) in
  Alcotest.(check bool) "previous binding returned" true
    (match Kv_store.decode_binding r2 with
    | Some v -> Value.equal v (Value.Int 1)
    | None -> false);
  let s, r3 = apply Kv_store.spec s (Kv_store.get "k") in
  Alcotest.(check bool) "get current" true
    (match Kv_store.decode_binding r3 with
    | Some v -> Value.equal v (Value.Int 2)
    | None -> false);
  let s, r4 = apply Kv_store.spec s (Kv_store.delete "k") in
  Alcotest.check value "delete true" (Value.Bool true) r4;
  let _, r5 = apply Kv_store.spec s Kv_store.size in
  Alcotest.check value "size 0" (Value.Int 0) r5

let test_illegal_op_rejected () =
  Alcotest.(check bool) "apply returns None" true
    (Counter.spec.Seq_spec.apply (Value.Int 0) (Value.Str "nonsense") = None);
  Alcotest.check_raises "apply_exn raises"
    (Invalid_argument "Seq_spec counter: illegal op \"nonsense\" in state 0")
    (fun () -> ignore (apply Counter.spec (Value.Int 0) (Value.Str "nonsense")))

(* Property: the counter value after a batch of incs/adds equals the sum. *)
let qcheck_counter_sum =
  QCheck.Test.make ~name:"counter sums deltas" ~count:300
    QCheck.(small_list (int_range (-20) 20))
    (fun deltas ->
      let ops = List.map Counter.add deltas in
      let responses = Seq_spec.run_sequential Counter.spec ops in
      let expected_prefix_sums =
        List.rev
          (snd
             (List.fold_left
                (fun (acc, outs) d -> acc + d, Value.Int acc :: outs)
                (0, []) deltas))
      in
      List.for_all2 Value.equal responses expected_prefix_sums)

(* Property: stack push-then-pop-all returns pushed values in reverse. *)
let qcheck_stack_lifo =
  QCheck.Test.make ~name:"stack is LIFO" ~count:300
    QCheck.(small_list small_int)
    (fun xs ->
      let pushes = List.map (fun x -> Stack_obj.push (Value.Int x)) xs in
      let pops = List.map (fun _ -> Stack_obj.pop) xs in
      let responses = Seq_spec.run_sequential Stack_obj.spec (pushes @ pops) in
      let popped = List.filteri (fun i _ -> i >= List.length xs) responses in
      List.for_all2
        (fun got want -> Value.equal got (Value.Int want))
        popped (List.rev xs))

(* Property: queue preserves order. *)
let qcheck_queue_fifo =
  QCheck.Test.make ~name:"queue is FIFO" ~count:300
    QCheck.(small_list small_int)
    (fun xs ->
      let enqs = List.map (fun x -> Queue_obj.enqueue (Value.Int x)) xs in
      let deqs = List.map (fun _ -> Queue_obj.dequeue) xs in
      let responses = Seq_spec.run_sequential Queue_obj.spec (enqs @ deqs) in
      let dequeued = List.filteri (fun i _ -> i >= List.length xs) responses in
      List.for_all2 (fun got want -> Value.equal got (Value.Int want)) dequeued xs)

(* --- query-abortable objects ------------------------------------------- *)

let test_qa_solo_succeeds () =
  let rt = Runtime.create ~n:1 () in
  let qa =
    Qa_object.create rt ~name:"c" ~spec:Counter.spec ~policy:Abort_policy.Always
      ()
  in
  let results = ref [] in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      for _ = 1 to 3 do
        let response = qa.Qa_intf.invoke Counter.inc in
        results := response :: !results
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check (list (of_pp Value.pp)))
    "solo ops never abort"
    [ Value.Int 2; Value.Int 1; Value.Int 0 ]
    !results;
  Alcotest.check value "state" (Value.Int 3) (qa.Qa_intf.peek_state ())

let test_qa_contended_aborts_and_query_recovers () =
  let rt = Runtime.create ~n:2 () in
  let qa =
    Qa_object.create rt ~name:"c" ~spec:Counter.spec ~policy:Abort_policy.Always
      ~effect_on_abort:Abort_policy.Effect_always ()
  in
  let aborted = ref 0 and recovered = ref [] in
  for pid = 0 to 1 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        let res = qa.Qa_intf.invoke Counter.inc in
        if Value.equal res Value.Abort then begin
          incr aborted;
          (* Stagger the two processes so the query loops de-synchronize
             (two perfectly interleaved queriers abort forever, which is
             legal — queries may abort — but not what we test here). *)
          for _ = 1 to pid + 1 do
            Runtime.yield ()
          done;
          let rec ask () =
            match qa.Qa_intf.query () with
            | Value.Abort ->
              for _ = 1 to pid + 1 do
                Runtime.yield ()
              done;
              ask ()
            | v -> v
          in
          let fate = ask () in
          recovered := fate :: !recovered
        end)
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:200;
  Runtime.stop rt;
  Alcotest.(check int) "both ops aborted (round-robin overlap)" 2 !aborted;
  (* Effect_always: both took effect; queries must recover responses 0 and 1. *)
  let sorted = List.sort compare (List.map Value.to_int !recovered) in
  Alcotest.(check (list int)) "fates recovered" [ 0; 1 ] sorted;
  Alcotest.check value "both applied" (Value.Int 2) (qa.Qa_intf.peek_state ())

let test_qa_no_effect_query_returns_fail () =
  let rt = Runtime.create ~n:2 () in
  let qa =
    Qa_object.create rt ~name:"c" ~spec:Counter.spec ~policy:Abort_policy.Always
      ~effect_on_abort:Abort_policy.Effect_never ()
  in
  let fates = ref [] in
  for pid = 0 to 1 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        let res = qa.Qa_intf.invoke Counter.inc in
        if Value.equal res Value.Abort then begin
          for _ = 1 to pid + 1 do
            Runtime.yield ()
          done;
          let rec ask () =
            match qa.Qa_intf.query () with
            | Value.Abort ->
              for _ = 1 to pid + 1 do
                Runtime.yield ()
              done;
              ask ()
            | v -> v
          in
          let fate = ask () in
          fates := fate :: !fates
        end)
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:200;
  Runtime.stop rt;
  Alcotest.(check (list (of_pp Value.pp)))
    "both queries report F"
    [ Value.Fail; Value.Fail ] !fates;
  Alcotest.check value "nothing applied" (Value.Int 0) (qa.Qa_intf.peek_state ())

let test_qa_query_before_any_op () =
  let rt = Runtime.create ~n:1 () in
  let qa =
    Qa_object.create rt ~name:"c" ~spec:Counter.spec ~policy:Abort_policy.Never ()
  in
  let fate = ref Value.Unit in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () -> fate := qa.Qa_intf.query ());
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:50;
  Alcotest.check value "query with no prior op is F" Value.Fail !fate

(* Both QA implementations must agree on sequential (solo) behaviour. *)
let qcheck_qa_universal_matches_direct =
  QCheck.Test.make ~name:"Qa_universal solo behaviour matches Qa_object"
    ~count:100
    QCheck.(small_list (int_range 0 2))
    (fun choices ->
      let ops =
        List.map
          (fun c ->
            match c with
            | 0 -> Counter.inc
            | 1 -> Counter.add 3
            | _ -> Counter.read)
          choices
      in
      let run make =
        let rt = Runtime.create ~n:1 () in
        let qa = make rt in
        let results = ref [] in
        Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
            List.iter
              (fun op ->
                let response = qa.Qa_intf.invoke op in
                results := response :: !results)
              ops);
        Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:(50 + (List.length ops * 10));
        Runtime.stop rt;
        List.rev !results, qa.Qa_intf.peek_state ()
      in
      let direct =
        run (fun rt ->
            Qa_object.create rt ~name:"d" ~spec:Counter.spec
              ~policy:Abort_policy.Always ())
      in
      let universal =
        run (fun rt ->
            Qa_universal.create rt ~name:"u" ~spec:Counter.spec
              ~policy:Abort_policy.Always ())
      in
      let results_equal (r1, s1) (r2, s2) =
        List.length r1 = List.length r2
        && List.for_all2 Value.equal r1 r2
        && Value.equal s1 s2
      in
      results_equal direct universal)

let test_qa_universal_fate_via_op_ids () =
  (* The fate log must distinguish "my last op" from older ops: after an
     aborted no-effect op, query returns F even though an earlier op by the
     same process took effect. *)
  let rt = Runtime.create ~n:2 () in
  let qa =
    Qa_universal.create rt ~name:"u" ~spec:Counter.spec
      ~policy:Abort_policy.Always ~effect_on_abort:Abort_policy.Effect_never ()
  in
  let outcome = ref Value.Unit in
  let first_response = ref Value.Unit in
  let noise_done = ref false in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      (* Phase 1: first op runs while p1 only yields — no contention. *)
      first_response := qa.Qa_intf.invoke Counter.inc;
      (* Phase 2: collide with p1's reads until an abort is observed. *)
      let rec collide budget =
        if budget = 0 then ()
        else
          let r = qa.Qa_intf.invoke Counter.inc in
          if Value.equal r Value.Abort then begin
            (* Phase 3: wait out the noise, then query solo. *)
            Runtime.await (fun () -> !noise_done);
            outcome := qa.Qa_intf.query ()
          end
          else collide (budget - 1)
      in
      collide 30);
  Runtime.spawn rt ~pid:1 ~name:"noise" (fun () ->
      for _ = 1 to 6 do
        Runtime.yield ()
      done;
      for _ = 1 to 40 do
        let (_ : Value.t) = qa.Qa_intf.invoke Counter.read in
        ()
      done;
      noise_done := true);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:2_000;
  Runtime.stop rt;
  Alcotest.check value "first solo op succeeded" (Value.Int 0) !first_response;
  Alcotest.check value "aborted-no-effect op reports F, not the old response"
    Value.Fail !outcome

let () =
  Alcotest.run "objects"
    [
      ( "sequential specs",
        [
          Alcotest.test_case "counter" `Quick test_counter_spec;
          Alcotest.test_case "stack" `Quick test_stack_spec;
          Alcotest.test_case "queue" `Quick test_queue_spec;
          Alcotest.test_case "set" `Quick test_set_spec;
          Alcotest.test_case "kv store" `Quick test_kv_spec;
          Alcotest.test_case "illegal op rejected" `Quick test_illegal_op_rejected;
        ] );
      ( "spec properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_counter_sum;
            qcheck_stack_lifo;
            qcheck_queue_fifo;
          ] );
      ( "query-abortable",
        [
          Alcotest.test_case "solo succeeds" `Quick test_qa_solo_succeeds;
          Alcotest.test_case "contended aborts, query recovers" `Quick
            test_qa_contended_aborts_and_query_recovers;
          Alcotest.test_case "no-effect query returns F" `Quick
            test_qa_no_effect_query_returns_fail;
          Alcotest.test_case "query before any op" `Quick
            test_qa_query_before_any_op;
          Alcotest.test_case "universal: fate via op ids" `Quick
            test_qa_universal_fate_via_op_ids;
          QCheck_alcotest.to_alcotest qcheck_qa_universal_matches_direct;
        ] );
    ]
