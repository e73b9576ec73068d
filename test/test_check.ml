open Tbwf_sim
open Tbwf_check

let op ~pid ~invoke ~respond o result =
  { History.pid; op = o; result; invoke; respond }

let reg_spec = Linearizability.register_spec ~init:(Value.Int 0)

(* A trace of [rt]'s run, recorded from its first step. *)
let record rt =
  let trace = Trace.create () in
  Runtime.set_sink rt (Trace.recorder trace);
  trace

let test_empty_history () =
  Alcotest.(check bool) "empty is linearizable" true
    (Linearizability.check reg_spec [])

let test_sequential_good () =
  let history =
    [
      op ~pid:0 ~invoke:0 ~respond:1 (Value.write_op (Value.Int 5)) Value.Unit;
      op ~pid:0 ~invoke:2 ~respond:3 Value.read_op (Value.Int 5);
    ]
  in
  Alcotest.(check bool) "write then read" true
    (Linearizability.check reg_spec history)

let test_sequential_bad () =
  let history =
    [
      op ~pid:0 ~invoke:0 ~respond:1 (Value.write_op (Value.Int 5)) Value.Unit;
      op ~pid:0 ~invoke:2 ~respond:3 Value.read_op (Value.Int 6);
    ]
  in
  Alcotest.(check bool) "stale read rejected" false
    (Linearizability.check reg_spec history)

let test_concurrent_either_order () =
  (* Two concurrent writes then a read seeing either one. *)
  let base v =
    [
      op ~pid:0 ~invoke:0 ~respond:3 (Value.write_op (Value.Int 1)) Value.Unit;
      op ~pid:1 ~invoke:1 ~respond:2 (Value.write_op (Value.Int 2)) Value.Unit;
      op ~pid:2 ~invoke:4 ~respond:5 Value.read_op (Value.Int v);
    ]
  in
  Alcotest.(check bool) "read 1 ok" true (Linearizability.check reg_spec (base 1));
  Alcotest.(check bool) "read 2 ok" true (Linearizability.check reg_spec (base 2));
  Alcotest.(check bool) "read 3 impossible" false
    (Linearizability.check reg_spec (base 3))

let test_real_time_order_respected () =
  (* Sequential write 1 THEN write 2 (non-overlapping) — a later read of 1
     is not linearizable. *)
  let history =
    [
      op ~pid:0 ~invoke:0 ~respond:1 (Value.write_op (Value.Int 1)) Value.Unit;
      op ~pid:1 ~invoke:2 ~respond:3 (Value.write_op (Value.Int 2)) Value.Unit;
      op ~pid:2 ~invoke:4 ~respond:5 Value.read_op (Value.Int 1);
    ]
  in
  Alcotest.(check bool) "overwritten value not readable" false
    (Linearizability.check reg_spec history)

let test_concurrent_read_new_or_old () =
  (* A read concurrent with a write may see either old or new value. *)
  let base v =
    [
      op ~pid:0 ~invoke:0 ~respond:1 (Value.write_op (Value.Int 1)) Value.Unit;
      op ~pid:0 ~invoke:2 ~respond:6 (Value.write_op (Value.Int 2)) Value.Unit;
      op ~pid:1 ~invoke:3 ~respond:4 Value.read_op (Value.Int v);
    ]
  in
  Alcotest.(check bool) "old ok" true (Linearizability.check reg_spec (base 1));
  Alcotest.(check bool) "new ok" true (Linearizability.check reg_spec (base 2))

let test_counter_spec () =
  let history ok =
    [
      op ~pid:0 ~invoke:0 ~respond:1 (Value.Str "inc") (Value.Int 0);
      op ~pid:1 ~invoke:2 ~respond:3 (Value.Str "inc") (Value.Int (if ok then 1 else 0));
      op ~pid:0 ~invoke:4 ~respond:5 Value.read_op (Value.Int 2);
    ]
  in
  Alcotest.(check bool) "monotone increments ok" true
    (Linearizability.check Linearizability.counter_spec (history true));
  Alcotest.(check bool) "duplicate return rejected" false
    (Linearizability.check Linearizability.counter_spec (history false))

let test_history_extraction () =
  let rt = Runtime.create ~n:2 () in
  let trace = record rt in
  let reg =
    Tbwf_registers.Atomic_reg.create rt ~name:"X"
      ~codec:Tbwf_registers.Codec.int ~init:0
  in
  for pid = 0 to 1 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        Tbwf_registers.Atomic_reg.write reg pid;
        ignore (Tbwf_registers.Atomic_reg.read reg))
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  let history = History.complete_ops trace ~obj_name:"X" in
  Alcotest.(check int) "four complete ops" 4 (List.length history);
  List.iter
    (fun o ->
      Alcotest.(check bool) "window ordered" true (o.History.invoke < o.History.respond))
    history

let test_pending_ops_dropped () =
  let rt = Runtime.create ~n:1 () in
  let trace = record rt in
  let obj =
    Runtime.register_object rt ~name:"Y" ~respond:(fun _ -> Value.Unit)
  in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      let (_ : Value.t) = Runtime.call obj Value.read_op in
      let (_ : Value.t) = Runtime.call obj Value.read_op in
      ());
  (* Stop after 2 steps: the first op completes at step 1 — the same step
     whose continuation also invokes the second op, which is then left
     pending. *)
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:2;
  let history = History.complete_ops trace ~obj_name:"Y" in
  Alcotest.(check int) "only the complete op extracted" 1 (List.length history);
  Runtime.stop rt

(* Random register histories produced by the ATOMIC register are always
   accepted; mutated results are usually rejected. Covers the checker
   against its own blind spots. *)
let qcheck_mutation_detected =
  QCheck.Test.make ~name:"mutating a read result breaks linearizability"
    ~count:50
    QCheck.(int_range 1 5_000)
    (fun seed ->
      let rt = Runtime.create ~seed:(Int64.of_int seed) ~n:2 () in
      let trace = record rt in
      let reg =
        Tbwf_registers.Atomic_reg.create rt ~name:"Z"
          ~codec:Tbwf_registers.Codec.int ~init:0
      in
      for pid = 0 to 1 do
        Runtime.spawn rt ~pid ~name:"t" (fun () ->
            for k = 1 to 3 do
              Tbwf_registers.Atomic_reg.write reg ((pid * 100) + k);
              ignore (Tbwf_registers.Atomic_reg.read reg)
            done)
      done;
      Runtime.run rt ~policy:(Policy.weighted [| 0, 1.0; 1, 1.3 |]) ~steps:300;
      Runtime.stop rt;
      let history = History.complete_ops trace ~obj_name:"Z" in
      let mutated =
        List.map
          (fun o ->
            if Value.is_read o.History.op then
              { o with History.result = Value.Int 999_999 }
            else o)
          history
      in
      Linearizability.check reg_spec history
      && not (Linearizability.check reg_spec mutated))

(* --- permutation oracle -------------------------------------------------- *)

(* Brute-force ground truth for the Wing–Gong checker: a history of <= 6
   operations is linearizable iff some permutation of its operations both
   respects real-time precedence and is legal for the sequential spec.
   Checked against random well-formed histories — including illegal ones,
   so agreement is exercised on both verdicts. *)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) xs)))
      xs

let oracle spec history =
  let ops = Array.of_list history in
  let respects_real_time perm =
    let rec ok = function
      | [] -> true
      | a :: rest ->
        List.for_all
          (fun b ->
            not (ops.(b).History.respond < ops.(a).History.invoke))
          rest
        && ok rest
    in
    ok perm
  in
  let legal perm =
    let rec go state = function
      | [] -> true
      | i :: rest -> (
        match spec.Linearizability.apply state ops.(i).History.op with
        | Some (state', r) when Value.equal r ops.(i).History.result ->
          go state' rest
        | Some _ | None -> false)
    in
    go spec.Linearizability.initial perm
  in
  List.exists
    (fun p -> respects_real_time p && legal p)
    (permutations (List.init (Array.length ops) Fun.id))

(* Well-formed random history: each pid's operations are sequential (its
   own windows don't overlap); windows of different pids overlap freely.
   Results are drawn from a small domain, so a good fraction of histories
   are NOT linearizable. *)
let gen_history ~ops_of seed =
  let rng = Rng.create (Int64.of_int seed) in
  let n_ops = 1 + Rng.int rng 6 in
  let clock = Array.make 3 0 in
  List.init n_ops (fun _ ->
      let pid = Rng.int rng 3 in
      let invoke = clock.(pid) + Rng.int rng 3 in
      let respond = invoke + 1 + Rng.int rng 4 in
      clock.(pid) <- respond + 1;
      let o, result = ops_of rng in
      { History.pid; op = o; result; invoke; respond })

let counter_ops rng =
  if Rng.bool rng 0.5 then (Value.Str "inc", Value.Int (Rng.int rng 4))
  else (Value.read_op, Value.Int (Rng.int rng 4))

let register_ops rng =
  if Rng.bool rng 0.5 then
    (Value.write_op (Value.Int (Rng.int rng 4)), Value.Unit)
  else (Value.read_op, Value.Int (Rng.int rng 4))

let agrees_with_oracle ~name ~spec ~ops_of =
  QCheck.Test.make ~name ~count:300
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let history = gen_history ~ops_of seed in
      Linearizability.check spec history = oracle spec history)

let qcheck_counter_oracle =
  agrees_with_oracle ~name:"checker agrees with permutation oracle (counter)"
    ~spec:Linearizability.counter_spec ~ops_of:counter_ops

let qcheck_register_oracle =
  agrees_with_oracle ~name:"checker agrees with permutation oracle (register)"
    ~spec:reg_spec ~ops_of:register_ops

(* The post-hoc degradation checker reads each pid's tail steps and gaps
   off the trace. A trace that was never recorded would make every tail
   empty and every schedule vacuously timely, so a trace with no step at
   or after [pred_from] is refused rather than verdicted. *)
let test_degradation_refuses_unrecorded_trace () =
  let prediction =
    {
      Degradation.pred_n = 2;
      pred_timely = [ 0; 1 ];
      pred_from = 0;
      pred_bound = 4;
      pred_emergent = None;
    }
  in
  let check trace =
    Degradation.check ~prediction ~trace ~completed_before:[| 0; 0 |]
      ~completed_after:[| 1; 1 |] ()
  in
  let recorded = Trace.create () in
  List.iter (fun pid -> Trace.record_step recorded ~pid) [ 0; 1; 0; 1 ];
  Alcotest.(check bool) "a recorded trace is verdicted" true
    (check recorded).Degradation.holds;
  (* The trace of a recorder that was never attached: no steps. *)
  let unrecorded = Trace.create () in
  match check unrecorded with
  | _ -> Alcotest.fail "an unrecorded trace was verdicted"
  | exception Invalid_argument _ -> ()

(* The floor folds the substrate's cost factor into its one clamp. The
   reference is the shared-memory floor divided by the cost factor and
   clamped a second time, as message-passing cells computed it before. *)
let qcheck_floor_matches_two_clamps =
  QCheck.Test.make ~name:"one-clamp floor equals the two-clamp formula"
    ~count:2_000
    QCheck.(
      triple (oneofl [ 1; 4 ]) (int_range 2 1024) (int_range 0 100_000_000))
    (fun (cost, n, tail) ->
      let reference =
        Int.max 2
          (Int.max 2 (tail / (Degradation.tail_rate_denominator * (n + 1)))
          / cost)
      in
      Degradation.required_tail_ops ~cost ~n ~tail = reference)

(* The online checker against the post-hoc one on random traces: idle
   steps (-1), pids at or past n (both skipped by the gap bookkeeping),
   predictions that exempt some pids, and bounds from -2 to 8, negative
   ones included. A tail that starts at or past the end of the trace is
   one the post-hoc check refuses, so there it must raise instead. A
   completion is signalled after its step, as the runtime does, so it
   counts in the tail exactly when its step does. *)
let qcheck_online_matches_check =
  QCheck.Test.make ~name:"online verdict equals post-hoc check" ~count:2_000
    QCheck.(int_range 0 1_000_000_000)
    (fun seed ->
      let g = Rng.create (Int64.of_int seed) in
      let n = 1 + Rng.int g 4 in
      let len = Rng.int g 60 in
      let prediction =
        {
          Degradation.pred_n = n;
          pred_timely = List.filter (fun _ -> Rng.int g 4 > 0) (List.init n Fun.id);
          pred_from = Rng.int g (len + 6);
          pred_bound = Rng.int g 11 - 2;
          pred_emergent = None;
        }
      in
      let trace = Trace.create () in
      let online = Degradation.Online.create prediction in
      let sink = Degradation.Online.sink online in
      let before = Array.make n 0 and after = Array.make n 0 in
      for step = 0 to len - 1 do
        let pid = Rng.int g (n + 3) - 1 in
        Trace.record_step trace ~pid;
        sink.Sink.on_step ~step ~pid ~layer:Sink.Other;
        if pid >= 0 && Rng.int g 3 = 0 then begin
          sink.Sink.on_signal ~step ~pid Sink.Op_complete;
          if pid < n then begin
            after.(pid) <- after.(pid) + 1;
            if step < prediction.pred_from then before.(pid) <- before.(pid) + 1
          end
        end
      done;
      match
        Degradation.check ~prediction ~trace ~completed_before:before
          ~completed_after:after ()
      with
      | verdict ->
        len > prediction.pred_from
        && Degradation.Online.verdict online = verdict
      | exception Invalid_argument _ -> len <= prediction.pred_from)

(* [Cell_runner.run] arms the checker's step hook only at the tail
   boundary and feeds it signals from the start. A checker armed at any
   step up to [pred_from] must decide what one fed the whole stream
   decides, and what the post-hoc check decides wherever that one has a
   tail to judge. The streams are those of the property above, with up
   to 6 processes. *)
let qcheck_armed_matches_whole_stream =
  QCheck.Test.make ~name:"tail-armed checker equals whole stream"
    ~count:2_000
    QCheck.(int_range 0 1_000_000_000)
    (fun seed ->
      let g = Rng.create (Int64.of_int seed) in
      let n = 1 + Rng.int g 6 in
      let len = Rng.int g 80 in
      let prediction =
        {
          Degradation.pred_n = n;
          pred_timely = List.filter (fun _ -> Rng.int g 4 > 0) (List.init n Fun.id);
          pred_from = Rng.int g (len + 6);
          pred_bound = Rng.int g 11 - 2;
          pred_emergent = None;
        }
      in
      let arm = Rng.int g (prediction.pred_from + 1) in
      let trace = Trace.create () in
      let whole = Degradation.Online.create prediction in
      let armed = Degradation.Online.create prediction in
      let before = Array.make n 0 and after = Array.make n 0 in
      for step = 0 to len - 1 do
        let pid = Rng.int g (n + 3) - 1 in
        Trace.record_step trace ~pid;
        Degradation.Online.on_step whole ~step ~pid;
        if step >= arm then Degradation.Online.on_step armed ~step ~pid;
        if pid >= 0 && Rng.int g 3 = 0 then begin
          Degradation.Online.on_signal whole ~step ~pid Sink.Op_complete;
          Degradation.Online.on_signal armed ~step ~pid Sink.Op_complete;
          if pid < n then begin
            after.(pid) <- after.(pid) + 1;
            if step < prediction.pred_from then before.(pid) <- before.(pid) + 1
          end
        end
      done;
      let verdict = Degradation.Online.verdict armed in
      verdict = Degradation.Online.verdict whole
      &&
      match
        Degradation.check ~prediction ~trace ~completed_before:before
          ~completed_after:after ()
      with
      | posthoc -> verdict = posthoc
      | exception Invalid_argument _ -> len <= prediction.pred_from)

let () =
  Alcotest.run "check"
    [
      ( "linearizability",
        [
          Alcotest.test_case "empty" `Quick test_empty_history;
          Alcotest.test_case "sequential good" `Quick test_sequential_good;
          Alcotest.test_case "sequential bad" `Quick test_sequential_bad;
          Alcotest.test_case "concurrent either order" `Quick
            test_concurrent_either_order;
          Alcotest.test_case "real-time order respected" `Quick
            test_real_time_order_respected;
          Alcotest.test_case "concurrent read old or new" `Quick
            test_concurrent_read_new_or_old;
          Alcotest.test_case "counter spec" `Quick test_counter_spec;
          QCheck_alcotest.to_alcotest qcheck_counter_oracle;
          QCheck_alcotest.to_alcotest qcheck_register_oracle;
        ] );
      ( "history",
        [
          Alcotest.test_case "extraction" `Quick test_history_extraction;
          Alcotest.test_case "pending dropped" `Quick test_pending_ops_dropped;
          QCheck_alcotest.to_alcotest qcheck_mutation_detected;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "refuses an unrecorded trace" `Quick
            test_degradation_refuses_unrecorded_trace;
          QCheck_alcotest.to_alcotest qcheck_floor_matches_two_clamps;
          QCheck_alcotest.to_alcotest qcheck_online_matches_check;
          QCheck_alcotest.to_alcotest qcheck_armed_matches_whole_stream;
        ] );
    ]
