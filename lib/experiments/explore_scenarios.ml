open Tbwf_sim
open Tbwf_registers
open Tbwf_objects
open Tbwf_check

type t = {
  name : string;
  summary : string;
  n : int;
  seed : int64;
  max_steps : int;
  expect_violation : bool;
  scenario : Runtime.t -> Trace.t -> unit -> bool;
}

let make_runtime t () = Runtime.create ~seed:t.seed ~n:t.n ()

(* --- atomic2: every interleaving of two register clients linearizable --- *)

let atomic2_scenario rt trace =
  let reg = Atomic_reg.create rt ~name:"X" ~codec:Codec.int ~init:0 in
  for pid = 0 to 1 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        Atomic_reg.write reg (pid + 1);
        ignore (Atomic_reg.read reg))
  done;
  fun () ->
    let history = History.complete_ops trace ~obj_name:"X" in
    Linearizability.check (Linearizability.register_spec ~init:(Value.Int 0))
      history

let atomic2 =
  {
    name = "atomic2";
    summary = "2 clients of one atomic register: linearizable everywhere";
    n = 2;
    seed = 1L;
    max_steps = 10;
    expect_violation = false;
    scenario = atomic2_scenario;
  }

(* --- abortable2: abortable-register value domain is safe ----------------- *)

let abortable2_scenario rt _trace =
  let reg =
    Abortable_reg.create rt ~name:"A" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Always
      ~write_effect:Abort_policy.Effect_always ()
  in
  let reads = ref [] in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      ignore (Abortable_reg.write reg 1);
      ignore (Abortable_reg.write reg 2));
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      for _ = 1 to 2 do
        match Abortable_reg.read reg with
        | Some v ->
          let snapshot = !reads in
          reads := v :: snapshot
        | None -> ()
      done);
  fun () ->
    List.for_all (fun v -> v = 0 || v = 1 || v = 2) !reads
    && List.mem (Abortable_reg.peek reg) [ 0; 1; 2 ]

let abortable2 =
  {
    name = "abortable2";
    summary = "abortable register under the always-abort adversary";
    n = 2;
    seed = 1L;
    max_steps = 10;
    expect_violation = false;
    scenario = abortable2_scenario;
  }

(* --- qa2: query-abortable fates are exact -------------------------------- *)

let qa2_scenario rt _trace =
  let qa =
    Qa_object.create rt ~name:"q" ~spec:Counter.spec ~policy:Abort_policy.Always
      ~effect_on_abort:Abort_policy.Effect_always ()
  in
  let confirmed = ref [] in
  for pid = 0 to 1 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        let res = qa.Qa_intf.invoke Counter.inc in
        let fate =
          if Value.equal res Value.Abort then qa.Qa_intf.query () else res
        in
        match fate with
        | Value.Int v ->
          let snapshot = !confirmed in
          confirmed := v :: snapshot
        | _ -> ())
  done;
  fun () ->
    match qa.Qa_intf.peek_state () with
    | Value.Int state ->
      state >= 0 && state <= 2
      && List.length !confirmed <= state
      && List.for_all (fun v -> v >= 0 && v < state) !confirmed
      && List.sort_uniq compare !confirmed = List.sort compare !confirmed
    | _ -> false

let qa2 =
  {
    name = "qa2";
    summary = "query-abortable counter: fates exact on every interleaving";
    n = 2;
    seed = 1L;
    max_steps = 12;
    expect_violation = false;
    scenario = qa2_scenario;
  }

(* --- regs3: mostly-disjoint registers, the reduction's showcase ---------- *)

let regs3_scenario rt trace =
  let shared = Atomic_reg.create rt ~name:"S" ~codec:Codec.int ~init:0 in
  let privs =
    Array.init 3 (fun i ->
        Atomic_reg.create rt ~name:(Fmt.str "R%d" i) ~codec:Codec.int ~init:0)
  in
  for pid = 0 to 2 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        Atomic_reg.write privs.(pid) (pid + 1);
        ignore (Atomic_reg.read shared))
  done;
  fun () ->
    let shared_reads_zero =
      History.complete_ops trace ~obj_name:"S"
      |> List.for_all (fun o ->
             (not (Value.is_read o.History.op))
             || Value.equal o.History.result (Value.Int 0))
    in
    shared_reads_zero
    && Array.for_all
         (fun i -> List.mem (Atomic_reg.peek privs.(i)) [ 0; i + 1 ])
         [| 0; 1; 2 |]

let regs3 =
  {
    name = "regs3";
    summary = "3 writers on private registers + one shared read: POR showcase";
    n = 3;
    seed = 1L;
    max_steps = 12;
    expect_violation = false;
    scenario = regs3_scenario;
  }

(* --- broken1: a register that lies, caught by some schedule -------------- *)

let broken1_scenario rt trace =
  let cell = ref (Value.Int 0) in
  let obj =
    Runtime.register_object rt ~name:"B" ~respond:(fun ctx ->
        match ctx.Shared.op with
        | Value.Pair (Str "write", v) ->
          cell := v;
          Value.Unit
        | Value.Pair (Str "read", _) -> Value.Int 999 (* always wrong *)
        | _ -> assert false)
  in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      let (_ : Value.t) = Runtime.call obj (Value.write_op (Value.Int 1)) in
      let (_ : Value.t) = Runtime.call obj Value.read_op in
      ());
  fun () ->
    let history = History.complete_ops trace ~obj_name:"B" in
    Linearizability.check (Linearizability.register_spec ~init:(Value.Int 0))
      history

let broken1 =
  {
    name = "broken1";
    summary = "a broken register whose reads lie: a violation must be found";
    n = 1;
    seed = 1L;
    max_steps = 8;
    expect_violation = true;
  scenario = broken1_scenario;
  }

(* --- mutex2: a check-then-set "lock" that two processes can both win ----- *)

(* Critical-section occupancy is itself a shared object (so the violation is
   visible to the explorer's footprint-based reduction, and recorded in the
   trace): entering and leaving are single atomic operations on it. *)
let mutex2_scenario rt _trace =
  let occupancy = ref 0 in
  let cs =
    Runtime.register_object rt ~name:"cs" ~respond:(fun ctx ->
        match ctx.Shared.op with
        | Value.Str "enter" ->
          incr occupancy;
          Value.Int !occupancy
        | Value.Str "leave" ->
          decr occupancy;
          Value.Int !occupancy
        | _ -> assert false)
  in
  let flags =
    Array.init 2 (fun i ->
        Atomic_reg.create rt ~name:(Fmt.str "F%d" i) ~codec:Codec.int ~init:0)
  in
  for pid = 0 to 1 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        (* The classic broken lock: test the other flag, THEN set ours. *)
        if Atomic_reg.read flags.(1 - pid) = 0 then begin
          Atomic_reg.write flags.(pid) 1;
          let (_ : Value.t) = Runtime.call cs (Value.Str "enter") in
          Runtime.yield ();
          let (_ : Value.t) = Runtime.call cs (Value.Str "leave") in
          Atomic_reg.write flags.(pid) 0
        end)
  done;
  fun () -> !occupancy <= 1

let mutex2 =
  {
    name = "mutex2";
    summary = "flawed check-then-set lock: mutual exclusion must break";
    n = 2;
    seed = 1L;
    max_steps = 16;
    expect_violation = true;
    scenario = mutex2_scenario;
  }

let all = [ atomic2; abortable2; qa2; regs3; broken1; mutex2 ]

let find name =
  List.find_opt (fun t -> String.equal t.name name) all

(* --- uniform drivers ----------------------------------------------------- *)

let exhaustive ?max_schedules ?por ?pool t =
  Explore.exhaustive ?max_schedules ?por ?pool ~max_steps:t.max_steps
    ~scenario:t.scenario ~make_runtime:(make_runtime t) ()

let exhaustive_naive ?max_schedules t =
  Explore.exhaustive_naive ?max_schedules ~max_steps:t.max_steps
    ~scenario:t.scenario ~make_runtime:(make_runtime t) ()

let fuzz ?seed ?runs ?pool t =
  Explore.fuzz ?seed ?runs ?pool ~max_steps:t.max_steps ~scenario:t.scenario
    ~make_runtime:(make_runtime t) ()

let replay t pids =
  Explore.replay ~max_steps:t.max_steps ~scenario:t.scenario
    ~make_runtime:(make_runtime t) pids

let schedule_of t pids = Schedule.make ~seed:t.seed ~n:t.n pids
