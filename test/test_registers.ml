open Tbwf_sim
open Tbwf_registers
open Tbwf_check

let test_atomic_read_write_solo () =
  let rt = Runtime.create ~n:1 () in
  let reg = Atomic_reg.create rt ~name:"r" ~codec:Codec.int ~init:5 in
  let observed = ref [] in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      observed := Atomic_reg.read reg :: !observed;
      Atomic_reg.write reg 9;
      observed := Atomic_reg.read reg :: !observed);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check (list int)) "init then written" [ 9; 5 ] !observed;
  Alcotest.(check int) "peek" 9 (Atomic_reg.peek reg)

(* Concurrent atomic-register histories must be linearizable (checked with
   the Wing–Gong checker) for many random schedules. *)
let qcheck_atomic_linearizable =
  QCheck.Test.make ~name:"atomic register histories linearizable" ~count:60
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rt = Runtime.create ~seed:(Int64.of_int seed) ~n:3 () in
      let trace = Trace.create () in
      Runtime.set_sink rt (Trace.recorder trace);
      let reg = Atomic_reg.create rt ~name:"R" ~codec:Codec.int ~init:0 in
      for pid = 0 to 2 do
        Runtime.spawn rt ~pid ~name:"t" (fun () ->
            for k = 1 to 4 do
              Atomic_reg.write reg ((pid * 10) + k);
              ignore (Atomic_reg.read reg)
            done)
      done;
      Runtime.run rt ~policy:(Policy.weighted [| 0, 1.0; 1, 1.5; 2, 0.7 |]) ~steps:500;
      Runtime.stop rt;
      let history = History.complete_ops trace ~obj_name:"R" in
      Linearizability.check (Linearizability.register_spec ~init:(Value.Int 0)) history)

let test_abortable_solo_never_aborts () =
  let rt = Runtime.create ~n:2 () in
  let reg =
    Abortable_reg.create rt ~name:"a" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Always ()
  in
  let write_results = ref [] in
  let read_results = ref [] in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      for k = 1 to 5 do
        let ok = Abortable_reg.write reg k in
        write_results := ok :: !write_results
      done);
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      (* Wait until the writer is done, then read solo. *)
      Runtime.await (fun () -> Abortable_reg.peek reg = 5);
      let r = Abortable_reg.read reg in
      read_results := r :: !read_results);
  (* Writer first (its ops run solo because the reader only awaits). *)
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:200;
  Alcotest.(check (list bool)) "solo writes succeed"
    [ true; true; true; true; true ] !write_results;
  Alcotest.(check (list (option int))) "solo read succeeds" [ Some 5 ]
    !read_results;
  Runtime.stop rt

let test_abortable_always_aborts_on_overlap () =
  let rt = Runtime.create ~n:2 () in
  let reg =
    Abortable_reg.create rt ~name:"a" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Always
      ~write_effect:Abort_policy.Effect_never ()
  in
  let aborted_writes = ref 0 and aborted_reads = ref 0 in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      for k = 1 to 20 do
        if not (Abortable_reg.write reg k) then incr aborted_writes
      done);
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      for _ = 1 to 20 do
        if Abortable_reg.read reg = None then incr aborted_reads
      done);
  (* Strict alternation: every op overlaps the other side's op. *)
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:200;
  Runtime.stop rt;
  Alcotest.(check int) "all writes aborted" 20 !aborted_writes;
  Alcotest.(check int) "all reads aborted" 20 !aborted_reads;
  Alcotest.(check int) "no aborted write took effect (Effect_never)" 0
    (Abortable_reg.peek reg)

let test_abortable_aborted_write_may_take_effect () =
  let rt = Runtime.create ~n:2 () in
  let reg =
    Abortable_reg.create rt ~name:"a" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Always
      ~write_effect:Abort_policy.Effect_always ()
  in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      ignore (Abortable_reg.write reg 42));
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      ignore (Abortable_reg.read reg));
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:50;
  Runtime.stop rt;
  Alcotest.(check int) "aborted write took effect (Effect_always)" 42
    (Abortable_reg.peek reg)

let test_abortable_swsr_enforced () =
  let rt = Runtime.create ~n:2 () in
  let reg =
    Abortable_reg.create rt ~name:"a" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Never ()
  in
  let raised = ref false in
  Runtime.spawn rt ~pid:1 ~name:"bad-writer" (fun () ->
      try ignore (Abortable_reg.write reg 1)
      with Invalid_argument _ -> raised := true);
  (try Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:50
   with Invalid_argument _ -> raised := true);
  Alcotest.(check bool) "wrong-pid write rejected" true !raised

let test_abortable_random_policy_partial () =
  let rt = Runtime.create ~seed:77L ~n:2 () in
  let reg =
    Abortable_reg.create rt ~name:"a" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:(Abort_policy.Random 0.5) ()
  in
  let ops = ref 0 and aborts = ref 0 in
  let count ok =
    incr ops;
    if not ok then incr aborts
  in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      for k = 1 to 200 do
        count (Abortable_reg.write reg k)
      done);
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      for _ = 1 to 200 do
        count (Option.is_some (Abortable_reg.read reg))
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:2000;
  Runtime.stop rt;
  let rate = float_of_int !aborts /. float_of_int !ops in
  Alcotest.(check bool) "rate strictly between 0 and 1" true
    (rate > 0.2 && rate < 0.8)

(* A crash resolves the writer's write in flight, alone; the reader's
   later read overlaps nothing, so even [Always] lets it through. *)
let test_read_after_crash_resolved_write () =
  let rt = Runtime.create ~n:2 () in
  let reg =
    Abortable_reg.create rt ~name:"a" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Always ()
  in
  let reads = ref [] in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      ignore (Abortable_reg.write reg 7 : bool));
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      reads := Abortable_reg.read reg :: !reads);
  Runtime.step rt ~pid:0;
  Runtime.crash_at rt ~pid:0 ~step:1;
  Runtime.step rt ~pid:1;
  Runtime.step rt ~pid:1;
  Alcotest.(check (list (option int))) "solo read of the resolved write"
    [ Some 7 ] !reads

let () =
  Alcotest.run "registers"
    [
      ( "atomic",
        [
          Alcotest.test_case "solo read/write" `Quick test_atomic_read_write_solo;
          QCheck_alcotest.to_alcotest qcheck_atomic_linearizable;
        ] );
      ( "abortable",
        [
          Alcotest.test_case "solo never aborts" `Quick
            test_abortable_solo_never_aborts;
          Alcotest.test_case "always aborts on overlap" `Quick
            test_abortable_always_aborts_on_overlap;
          Alcotest.test_case "aborted write may take effect" `Quick
            test_abortable_aborted_write_may_take_effect;
          Alcotest.test_case "SWSR enforced" `Quick test_abortable_swsr_enforced;
          Alcotest.test_case "random policy partial" `Quick
            test_abortable_random_policy_partial;
        ] );
      ( "solo after crash",
        [
          Alcotest.test_case "read after a crash-resolved write" `Quick
            test_read_after_crash_resolved_write;
        ] );
    ]
