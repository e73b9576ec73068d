(* Abortable-register edge cases, pinned to exact interleavings with
   Policy.replay. A shared-object operation spans two steps (invoke at one
   scheduled step, response at the process's next), so a replayed pid
   sequence fixes precisely which operation windows overlap — letting us
   test the boundary of the "solo operations never abort" guarantee rather
   than statistical behaviour. *)

open Tbwf_sim
open Tbwf_registers

let make_reg ?(seed = 1L) ?write_effect policy =
  let rt = Runtime.create ~seed ~n:2 () in
  let reg =
    Abortable_reg.create rt ~name:"a" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy ?write_effect ()
  in
  (rt, reg)

let run rt schedule =
  Runtime.run rt ~policy:(Policy.replay schedule) ~steps:(List.length schedule);
  Runtime.stop rt

(* Writer finishes completely (2 writes = 3 steps: invoke, respond+invoke,
   respond) before the reader takes a single step: under the harshest
   adversary nothing may abort, because nothing overlaps. *)
let test_solo_sequential_never_abort () =
  let rt, reg = make_reg Abort_policy.Always in
  let writes = ref [] and read = ref None in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      let w1 = Abortable_reg.write reg 1 in
      let w2 = Abortable_reg.write reg 2 in
      writes := [ w1; w2 ]);
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      read := Some (Abortable_reg.read reg));
  run rt [ 0; 0; 0; 1; 1 ];
  Alcotest.(check (list bool)) "solo writes succeed" [ true; true ] !writes;
  Alcotest.(check (option (option int))) "solo read sees last write"
    (Some (Some 2)) !read

(* Exact window boundary: the write's window is steps {0,1}, the read's is
   steps {2,3}. Adjacent but disjoint windows are not an overlap, so even
   Always must let both succeed. *)
let test_adjacent_windows_do_not_overlap () =
  let rt, reg = make_reg Abort_policy.Always in
  let wrote = ref None and read = ref None in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      wrote := Some (Abortable_reg.write reg 7));
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      read := Some (Abortable_reg.read reg));
  run rt [ 0; 0; 1; 1 ];
  Alcotest.(check (option bool)) "boundary write succeeds" (Some true) !wrote;
  Alcotest.(check (option (option int))) "boundary read succeeds"
    (Some (Some 7)) !read

(* One step later and the windows do overlap — in either nesting order. *)
let overlap_case schedule () =
  let rt, reg =
    make_reg Abort_policy.Always ~write_effect:Abort_policy.Effect_never
  in
  let wrote = ref None and read = ref None in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      wrote := Some (Abortable_reg.write reg 7));
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      read := Some (Abortable_reg.read reg));
  run rt schedule;
  Alcotest.(check (option bool)) "overlapped write aborts" (Some false) !wrote;
  Alcotest.(check (option (option int))) "overlapped read aborts" (Some None)
    !read;
  Alcotest.(check int) "Effect_never: abort left no trace" 0
    (Abortable_reg.peek reg)

let test_overlap_interleaved = overlap_case [ 0; 1; 0; 1 ]
let test_overlap_nested = overlap_case [ 0; 1; 1; 0 ]

(* A process's own back-to-back operations never overlap each other: the
   response of one and the invocation of the next happen at the same
   scheduled step, sequentially. *)
let test_back_to_back_writes_never_abort () =
  let rt, reg = make_reg Abort_policy.Always in
  let writes = ref [] in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      let w1 = Abortable_reg.write reg 1 in
      let w2 = Abortable_reg.write reg 2 in
      let w3 = Abortable_reg.write reg 3 in
      writes := [ w1; w2; w3 ]);
  run rt [ 0; 0; 0; 0 ];
  Alcotest.(check (list bool)) "all back-to-back writes succeed"
    [ true; true; true ] !writes;
  Alcotest.(check int) "last value stuck" 3 (Abortable_reg.peek reg)

(* The spec allows an aborted write to take effect or not, and the writer
   cannot tell. Under Effect_random both outcomes must actually occur:
   replay the same overlapping schedule across runtime seeds and observe
   the register both keeping its old value and taking the new one. *)
let test_aborted_write_both_effects_occur () =
  let outcomes = Hashtbl.create 2 in
  for seed = 1 to 40 do
    let rt, reg =
      make_reg ~seed:(Int64.of_int seed) Abort_policy.Always
        ~write_effect:(Abort_policy.Effect_random 0.5)
    in
    let wrote = ref None in
    Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
        wrote := Some (Abortable_reg.write reg 42));
    Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
        ignore (Abortable_reg.read reg));
    run rt [ 0; 1; 0; 1 ];
    Alcotest.(check (option bool)) "write always aborts" (Some false) !wrote;
    Hashtbl.replace outcomes (Abortable_reg.peek reg) ()
  done;
  Alcotest.(check bool) "some aborted write took effect" true
    (Hashtbl.mem outcomes 42);
  Alcotest.(check bool) "some aborted write did not take effect" true
    (Hashtbl.mem outcomes 0)

(* Random abort policy on the same pinned overlap: across seeds the same
   overlapped write must sometimes abort and sometimes succeed — "may
   abort" means may, not must. *)
let test_random_policy_both_fates_occur () =
  let aborted = ref false and succeeded = ref false in
  for seed = 1 to 40 do
    let rt, reg =
      make_reg ~seed:(Int64.of_int seed) (Abort_policy.Random 0.5)
    in
    let wrote = ref None in
    Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
        wrote := Some (Abortable_reg.write reg 42));
    Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
        ignore (Abortable_reg.read reg));
    run rt [ 0; 1; 0; 1 ];
    match !wrote with
    | Some true -> succeeded := true
    | Some false -> aborted := true
    | None -> Alcotest.fail "write did not complete"
  done;
  Alcotest.(check bool) "write aborted under some seed" true !aborted;
  Alcotest.(check bool) "write succeeded under some seed" true !succeeded

let () =
  Alcotest.run "abortable-edges"
    [
      ( "windows",
        [
          Alcotest.test_case "sequential solo ops never abort" `Quick
            test_solo_sequential_never_abort;
          Alcotest.test_case "adjacent windows do not overlap" `Quick
            test_adjacent_windows_do_not_overlap;
          Alcotest.test_case "interleaved windows abort" `Quick
            test_overlap_interleaved;
          Alcotest.test_case "nested windows abort" `Quick test_overlap_nested;
          Alcotest.test_case "back-to-back writes never abort" `Quick
            test_back_to_back_writes_never_abort;
        ] );
      ( "nondeterminism",
        [
          Alcotest.test_case "aborted write takes effect or not" `Quick
            test_aborted_write_both_effects_occur;
          Alcotest.test_case "random policy aborts or not" `Quick
            test_random_policy_both_fates_occur;
        ] );
    ]
