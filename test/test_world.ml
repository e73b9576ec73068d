(* The world layer and the dynamic-membership runtime underneath it.

   Three layers of coverage: (1) runtime churn primitives — a dormant
   pid joining through spawn_at, graceful retire with a pending operation
   across every register kind (mirroring test_crash_resolution), and a
   churned run byte-identically re-run under Policy.replay_strict;
   (2) the open-loop workload generator — arrivals respect the Poisson
   schedule, Zipf keys stay in range, a deferred joiner starts at its
   join step; (3) lib/world — aggregate determinism, churn accounting,
   and CLI stdout byte-identity across --jobs values. *)

open Tbwf_sim
open Tbwf_registers
module System = Tbwf_system.System
module World = Tbwf_world.World

(* --- spawn_at ------------------------------------------------------------- *)

let test_spawn_at_deferred () =
  (* Pid 1 is dormant: it has no task until its join at step 50. *)
  let rt = Runtime.create ~seed:12L ~n:2 () in
  let trace = Trace.create () in
  Runtime.set_sink rt (Trace.recorder trace);
  Runtime.spawn rt ~pid:0 ~name:"a" (fun () ->
      while true do
        Runtime.yield ()
      done);
  Runtime.spawn_at rt ~pid:1 ~at:50 ~name:"late" (fun () ->
      while true do
        Runtime.yield ()
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:200;
  let steps = Trace.steps_of trace ~pid:1 in
  Runtime.stop rt;
  Alcotest.(check bool) "joiner took steps" true (steps <> []);
  Alcotest.(check bool) "no step before its join" true
    (List.for_all (fun s -> s >= 50) steps)

(* --- retire with a pending operation, across register kinds --------------- *)

type kind = Atomic | Cas | Abortable

let kind_name = function
  | Atomic -> "atomic"
  | Cas -> "cas"
  | Abortable -> "abortable"

let all_kinds = [ Atomic; Cas; Abortable ]

(* Same scaffold as test_crash_resolution: a forever-writer on pid 0, a
   survivor on pid 1, one register of [kind]; the state check runs after
   the retire. *)
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
          ignore (Cas_reg.write reg !k)
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

let observe_retire kind ~retire_step =
  let rt = Runtime.create ~seed:7L ~n:2 () in
  let trace = Trace.create () in
  let state_ok = build kind rt in
  let retires = ref 0 in
  Runtime.set_sink rt
    (Sink.tee (Trace.recorder trace)
       {
         Sink.nil with
         Sink.active = true;
         on_signal =
           (fun ~step:_ ~pid:_ s ->
             match s with Sink.Retire _ -> incr retires | _ -> ());
       });
  Runtime.retire rt ~at:retire_step ~pid:0;
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
        e.Trace.pid <> 0 || e.Trace.step <= retire_step)
      ops
  in
  let survivor_progress =
    List.exists
      (fun (e : Trace.op_event) ->
        e.Trace.pid = 1
        && e.Trace.step > retire_step
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
  let ok =
    inv0 = resp0 && no_posthumous && survivor_progress && state_ok ()
    && !retires = 1
  in
  resolved_mid_op, ok

let test_retire_pending kind () =
  let any_mid_op = ref false in
  for retire_step = 1 to 60 do
    let resolved_mid_op, ok = observe_retire kind ~retire_step in
    if resolved_mid_op then any_mid_op := true;
    if not ok then
      Alcotest.failf "%s: retire at %d violated resolution invariants"
        (kind_name kind) retire_step
  done;
  (* operations cost two own-steps, so a 60-step scan provably catches
     at least one retire landing inside an invoke/respond window *)
  Alcotest.(check bool) "some retire landed mid-operation" true !any_mid_op

(* --- churn under strict replay -------------------------------------------- *)

(* A churned cell (open-loop clients, a deferred joiner, one retire, one
   crash) records its schedule; re-running the identical cell under
   Policy.replay_strict must not raise and must reproduce the trace
   byte-for-byte. This is the determinism contract the world layer's
   --jobs byte-identity rests on. *)
let churned_cell () =
  let stack =
    System.build ~seed:21L ~client_pids:[] ~n:4
      ~spec:Tbwf_objects.Kv_store.spec System.Tbwf_atomic
  in
  let rt = stack.System.rt in
  let profile =
    { Tbwf_core.Workload.Open_loop.mean_gap = 120.0; keys = 8; zipf = 1.1 }
  in
  let op_of_key ~pid ~k ~key =
    let name = "k" ^ string_of_int key in
    if k land 1 = 0 then Tbwf_objects.Kv_store.put name (Value.Int pid)
    else Tbwf_objects.Kv_store.get name
  in
  Tbwf_core.Workload.Open_loop.spawn_clients rt ~pids:[ 0; 1; 2 ]
    ~stats:stack.System.stats ~invoke:stack.System.invoke ~profile ~seed:21L
    ~until:4_000 ~op_of_key;
  Runtime.spawn_at ~layer:Sink.App rt ~pid:3 ~at:700 ~name:"open-loop"
    (Tbwf_core.Workload.Open_loop.client_body rt ~pid:3
       ~stats:stack.System.stats ~invoke:stack.System.invoke ~profile
       ~seed:21L ~until:4_000 ~op_of_key);
  Runtime.retire rt ~at:1_500 ~pid:1;
  Runtime.crash_at rt ~pid:2 ~step:2_200;
  rt, Option.get stack.System.trace

let test_churn_replay_strict () =
  let rt1, trace1 = churned_cell () in
  Runtime.run rt1 ~policy:(Policy.round_robin ()) ~steps:4_000;
  let sched = Trace.schedule trace1 in
  let fp1 = Trace.fingerprint trace1 in
  Runtime.stop rt1;
  let rt2, trace2 = churned_cell () in
  (* replay_strict raises Replay_mismatch on any divergence *)
  Runtime.run rt2 ~policy:(Policy.replay_strict sched) ~steps:4_000;
  let fp2 = Trace.fingerprint trace2 in
  Runtime.stop rt2;
  Alcotest.(check string) "byte-identical trace under strict replay" fp1 fp2

(* --- the open-loop generator ---------------------------------------------- *)

let test_open_loop_arrivals () =
  let rt = Runtime.create ~seed:5L ~n:3 () in
  let log = ref [] in
  let invoke op =
    log := (Runtime.now rt, op) :: !log;
    Value.Unit
  in
  let stats = Tbwf_core.Workload.fresh_stats ~n:3 in
  let profile =
    { Tbwf_core.Workload.Open_loop.mean_gap = 50.0; keys = 16; zipf = 0.0 }
  in
  let keys_seen = ref [] in
  let op_of_key ~pid ~k:_ ~key =
    keys_seen := key :: !keys_seen;
    Value.Pair (Value.Int pid, Value.Int key)
  in
  Tbwf_core.Workload.Open_loop.spawn_clients rt ~pids:[ 0; 1 ] ~stats
    ~invoke ~profile ~seed:5L ~until:2_000 ~op_of_key;
  Runtime.spawn_at ~layer:Sink.App rt ~pid:2 ~at:900 ~name:"open-loop"
    (Tbwf_core.Workload.Open_loop.client_body rt ~pid:2 ~stats ~invoke
       ~profile ~seed:5L ~until:2_000 ~op_of_key);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:2_500;
  Runtime.stop rt;
  Alcotest.(check bool) "initial clients issued" true
    (stats.Tbwf_core.Workload.issued.(0) > 10
    && stats.Tbwf_core.Workload.issued.(1) > 10);
  Alcotest.(check bool) "joiner issued" true
    (stats.Tbwf_core.Workload.issued.(2) > 0);
  Alcotest.(check bool) "every key in range" true
    (List.for_all (fun k -> k >= 0 && k < 16) !keys_seen);
  (* the joiner's arrival clock starts at its join step, never before *)
  Alcotest.(check bool) "no arrival before the joiner's join" true
    (List.for_all
       (fun (step, op) ->
         match op with
         | Value.Pair (Value.Int 2, _) -> step >= 900
         | _ -> true)
       !log);
  (* open-loop: issue counts track the arrival schedule, not the
     (instant) service time — about until/mean_gap arrivals *)
  Alcotest.(check bool) "issue counts bounded by the schedule" true
    (stats.Tbwf_core.Workload.issued.(0) < 2 * (2_000 / 50))

let test_open_loop_deterministic () =
  let run () =
    let rt = Runtime.create ~seed:5L ~n:2 () in
    let log = ref [] in
    let invoke op =
      log := (Runtime.now rt, op) :: !log;
      Value.Unit
    in
    let stats = Tbwf_core.Workload.fresh_stats ~n:2 in
    let profile =
      { Tbwf_core.Workload.Open_loop.mean_gap = 40.0; keys = 8; zipf = 1.5 }
    in
    let op_of_key ~pid ~k:_ ~key = Value.Pair (Value.Int pid, Value.Int key) in
    Tbwf_core.Workload.Open_loop.spawn_clients rt ~pids:[ 0; 1 ] ~stats
      ~invoke ~profile ~seed:99L ~until:1_500 ~op_of_key;
    Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:1_800;
    Runtime.stop rt;
    !log
  in
  Alcotest.(check bool) "identical arrival and key sequences" true
    (run () = run ())

(* --- Fault_plan.Retire ---------------------------------------------------- *)

let test_retire_atom_roundtrip () =
  let open Tbwf_nemesis in
  let plan =
    Fault_plan.make ~n:4 ~horizon:10_000
      [
        Fault_plan.Retire { pid = 2; at = 3_000 };
        Fault_plan.Crash { pid = 1; at = 4_000 };
      ]
  in
  let text = Fault_plan.to_string plan in
  (match Fault_plan.of_string text with
  | Ok plan' ->
    Alcotest.(check bool) "round-trips" true (Fault_plan.equal plan plan')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  Alcotest.(check (list int)) "retired and crashed pids excluded" [ 0; 3 ]
    (Fault_plan.predicted_timely plan);
  Alcotest.(check int) "settles at the last leave" 4_000
    (Fault_plan.settle_step plan)

(* --- lib/world ------------------------------------------------------------ *)

let small_world =
  {
    World.default with
    World.shards = 6;
    n = 4;
    joiners = 1;
    leavers = 1;
    horizon = 8_000;
    every = Some 4_000;
    seed = 42L;
  }

let test_world_churn_accounting () =
  let seen = ref 0 in
  let summary =
    World.run
      ~on_shard:(fun r ->
        incr seen;
        let { World.ch_joins; ch_leaves } = r.World.ws_churn in
        Alcotest.(check int) "one join per shard" 1 (List.length ch_joins);
        Alcotest.(check int) "one leave per shard" 1 (List.length ch_leaves);
        List.iter
          (fun (pid, at) ->
            Alcotest.(check int) "joiner is the top pid" 3 pid;
            Alcotest.(check bool) "join lands in [h/8, 3h/8)" true
              (at >= 1_000 && at < 3_000))
          ch_joins;
        List.iter
          (fun (pid, at, _) ->
            Alcotest.(check bool) "leaver is an initial non-zero pid" true
              (pid >= 1 && pid <= 2);
            Alcotest.(check bool) "leave lands in [h/4, h/2)" true
              (at >= 2_000 && at < 4_000))
          ch_leaves)
      small_world
  in
  Alcotest.(check int) "on_shard fired per shard, in order" 6 !seen;
  Alcotest.(check bool) "completed some ops" true (summary.World.sum_completed > 0);
  Alcotest.(check int) "total steps" (6 * 8_000) summary.World.sum_steps

let test_world_deterministic_aggregate () =
  let run () =
    Tbwf_telemetry.Json.to_string (World.run small_world).World.sum_json
  in
  let sequential = run () in
  let pool = Tbwf_parallel.Pool.create ~domains:3 () in
  let pooled =
    Tbwf_telemetry.Json.to_string
      (World.run ~pool small_world).World.sum_json
  in
  Alcotest.(check string) "pool does not change the aggregate" sequential
    pooled

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let test_world_schema_pinned () =
  (* the tbwf-world/v1 shape is a public contract: any field add/remove/
     retype must re-bless test/golden/world_summary.schema *)
  let summary = World.run small_world in
  let actual = Tbwf_telemetry.Json.schema_string summary.World.sum_json in
  match
    List.find_opt Sys.file_exists
      [ "golden/world_summary.schema"; "test/golden/world_summary.schema" ]
  with
  | Some p ->
    Alcotest.(check string) "tbwf-world/v1 schema pinned" (read_file p) actual
  | None ->
    let oc = open_out_bin "world_summary.schema.actual" in
    output_string oc actual;
    close_out oc;
    Alcotest.fail
      "world_summary.schema golden not found (actual written to \
       world_summary.schema.actual)"

(* Bad cell parameters and open-loop profiles are rejected up front by
   the shared check, not by a failing shard task. *)
let test_world_validates_cell_params () =
  let p = small_world.World.profile in
  let with_profile profile = { small_world with World.profile } in
  List.iter
    (fun (label, c) ->
      Alcotest.(check bool) label true
        (match World.validate c with
        | () -> false
        | exception Invalid_argument _ -> true))
    [
      "window 0", { small_world with World.window = 0 };
      "retain 0", { small_world with World.retain = Some 0 };
      "n 1", { small_world with World.n = 1; joiners = 0; leavers = 0 };
      ( "mean_gap 0",
        with_profile { p with Tbwf_core.Workload.Open_loop.mean_gap = 0.0 } );
      "keys 0", with_profile { p with Tbwf_core.Workload.Open_loop.keys = 0 };
    ]

let test_world_schedule_stable () =
  (* churn_schedule is a pure function of (config, shard): predictable
     without running the shard *)
  let a = World.churn_schedule small_world ~shard:3 in
  let b = World.churn_schedule small_world ~shard:3 in
  Alcotest.(check bool) "stable" true (a = b);
  let c = World.churn_schedule small_world ~shard:4 in
  Alcotest.(check bool) "shard-dependent" true (a <> c)

(* --- CLI byte-identity across --jobs -------------------------------------- *)

let exe_path name =
  let candidates =
    [
      Filename.concat "../bin" (name ^ ".exe");
      Filename.concat "bin" (name ^ ".exe");
      Filename.concat "_build/default/bin" (name ^ ".exe");
    ]
  in
  List.find_opt Sys.file_exists candidates

let read_output cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  Buffer.contents buf

let test_world_jobs_byte_identity () =
  match exe_path "tbwf_world" with
  | None -> Alcotest.fail "tbwf_world.exe not found"
  | Some exe ->
    let run jobs =
      read_output
        (Printf.sprintf
           "%s --shards 6 -n 4 --steps 8000 --every 4000 --seed 42 --jobs %d \
            2>/dev/null"
           exe jobs)
    in
    let one = run 1 in
    Alcotest.(check bool) "produced output" true (String.length one > 0);
    Alcotest.(check string) "--jobs 4 is byte-identical to --jobs 1" one
      (run 4)

let () =
  Alcotest.run "world"
    [
      ( "spawn_at",
        [ Alcotest.test_case "deferred join" `Quick test_spawn_at_deferred ] );
      ( "retire",
        List.map
          (fun kind ->
            Alcotest.test_case (kind_name kind) `Quick
              (test_retire_pending kind))
          all_kinds );
      ( "replay",
        [
          Alcotest.test_case "churn under strict replay" `Quick
            test_churn_replay_strict;
        ] );
      ( "open_loop",
        [
          Alcotest.test_case "arrivals" `Quick test_open_loop_arrivals;
          Alcotest.test_case "deterministic" `Quick
            test_open_loop_deterministic;
        ] );
      ( "fault_plan",
        [
          Alcotest.test_case "retire atom round-trip" `Quick
            test_retire_atom_roundtrip;
        ] );
      ( "world",
        [
          Alcotest.test_case "churn accounting" `Quick
            test_world_churn_accounting;
          Alcotest.test_case "deterministic aggregate" `Quick
            test_world_deterministic_aggregate;
          Alcotest.test_case "validates cell parameters" `Quick
            test_world_validates_cell_params;
          Alcotest.test_case "stable schedules" `Quick
            test_world_schedule_stable;
          Alcotest.test_case "schema pinned" `Quick test_world_schema_pinned;
          Alcotest.test_case "--jobs byte-identity" `Quick
            test_world_jobs_byte_identity;
        ] );
    ]
