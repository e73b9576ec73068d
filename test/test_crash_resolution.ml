(* Crash-mid-operation resolution, across every register kind.

   A process crashed between an operation's invocation and its response
   must leave the object in a well-defined state: the runtime resolves the
   in-flight operation at crash time, so the trace shows exactly one
   response for every invocation (never a dangling invoke), nothing from
   the crashed process after the crash step, and the surviving process
   keeps completing operations against the same object. Crash steps are
   scanned over a small window so that at least one run provably lands
   inside an operation's invoke/respond window (operations cost two
   own-steps); such a run is recognizable by a response of the crashed
   process recorded during another process's scheduler step. *)

open Tbwf_sim
open Tbwf_registers

type kind = Atomic | Cas | Abortable

let kind_name = function
  | Atomic -> "atomic"
  | Cas -> "cas"
  | Abortable -> "abortable"

let all_kinds = [ Atomic; Cas; Abortable ]

(* Spawn a forever-writing task on pid 0 and a forever-operating survivor
   on pid 1, both on one register of [kind]; returns a state check run
   after the crash. *)
let build kind rt =
  match kind with
  | Atomic ->
    let reg = Atomic_reg.create rt ~name:"R" ~codec:Codec.int ~init:0 in
    Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
        let k = ref 0 in
        while true do
          incr k;
          Atomic_reg.write reg !k
        done);
    Runtime.spawn rt ~pid:1 ~name:"s" (fun () ->
        while true do
          ignore (Atomic_reg.read reg)
        done);
    fun () -> Atomic_reg.peek reg >= 0
  | Cas ->
    let reg = Cas_reg.create rt ~name:"R" ~codec:Codec.int ~init:0 in
    Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
        let k = ref 0 in
        while true do
          incr k;
          Cas_reg.write reg !k
        done);
    Runtime.spawn rt ~pid:1 ~name:"s" (fun () ->
        while true do
          let v = Cas_reg.read reg in
          ignore (Cas_reg.cas reg ~expected:v ~desired:(v + 1))
        done);
    fun () -> Cas_reg.peek reg >= 0
  | Abortable ->
    let reg =
      Abortable_reg.create rt ~name:"R" ~codec:Codec.int ~init:0 ~writer:0
        ~reader:1 ~policy:Abort_policy.Always ()
    in
    Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
        let k = ref 0 in
        while true do
          incr k;
          ignore (Abortable_reg.write reg !k)
        done);
    Runtime.spawn rt ~pid:1 ~name:"s" (fun () ->
        while true do
          ignore (Abortable_reg.read reg)
        done);
    fun () -> Abortable_reg.peek reg >= 0

type observation = {
  resolved_mid_op : bool;
      (* the crash caught pid 0 between invoke and respond, and the
         runtime resolved the operation: its response was recorded during
         another process's scheduler step *)
  ok : bool;
}

let observe kind ~crash_step =
  let rt = Runtime.create ~seed:7L ~n:2 () in
  let trace = Trace.create () in
  Runtime.set_sink rt (Trace.recorder trace);
  let state_ok = build kind rt in
  Runtime.crash_at rt ~pid:0 ~step:crash_step;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:300;
  let ops = Trace.ops trace in
  Runtime.stop rt;
  let count pid phase =
    List.length
      (List.filter
         (fun (e : Trace.op_event) ->
           e.Trace.pid = pid
           &&
           match (e.Trace.phase, phase) with
           | `Invoke, `I | `Respond _, `R -> true
           | _ -> false)
         ops)
  in
  let inv0 = count 0 `I and resp0 = count 0 `R in
  let no_posthumous =
    List.for_all
      (fun (e : Trace.op_event) ->
        e.Trace.pid <> 0 || e.Trace.step <= crash_step)
      ops
  in
  let survivor_progress =
    List.exists
      (fun (e : Trace.op_event) ->
        e.Trace.pid = 1
        && e.Trace.step > crash_step
        && match e.Trace.phase with `Respond _ -> true | `Invoke -> false)
      ops
  in
  let resolved_mid_op =
    List.exists
      (fun (e : Trace.op_event) ->
        e.Trace.pid = 0
        && (match e.Trace.phase with `Respond _ -> true | `Invoke -> false)
        && e.Trace.step < Trace.length trace
        && Trace.pid_at trace e.Trace.step <> 0)
      ops
  in
  {
    resolved_mid_op;
    ok = inv0 = resp0 && no_posthumous && survivor_progress && state_ok ();
  }

let test_kind kind () =
  (* Scan a window of crash steps: every crash point must satisfy the
     invariants, and at least one must land mid-operation (resolved by the
     runtime), or the test would not be exercising resolution at all. *)
  let observations =
    List.init 8 (fun i -> observe kind ~crash_step:(20 + i))
  in
  List.iteri
    (fun i o ->
      Alcotest.(check bool)
        (Fmt.str "%s: invariants at crash step %d" (kind_name kind) (20 + i))
        true o.ok)
    observations;
  Alcotest.(check bool)
    (Fmt.str "%s: some crash lands mid-operation" (kind_name kind))
    true
    (List.exists (fun o -> o.resolved_mid_op) observations)

let () =
  Alcotest.run "crash_resolution"
    [
      ( "crash mid-operation",
        List.map
          (fun kind ->
            Alcotest.test_case (kind_name kind) `Quick (test_kind kind))
          all_kinds );
    ]
