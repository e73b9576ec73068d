open Tbwf_sim
open Tbwf_registers
open Tbwf_monitor
open Tbwf_omega

type row = {
  ablation : string;
  variant : string;
  metric : string;
  outcome : string;
  healthy : bool;
}

type result = { rows : row list; ablations_all_fail : bool }

(* --- ablation 1: one heartbeat register instead of two ------------------ *)

(* Reader logic with a single register: "abort or advanced" means alive.
   The two-register case delegates to the real Heartbeat module. *)
let single_register_detector rt ~steps =
  let reg =
    Abortable_reg.create rt ~name:"hb-single" ~codec:Codec.int ~init:0
      ~writer:0 ~reader:1 ~policy:Abort_policy.Always ()
  in
  (* Writer stalls inside a write: it invokes one write and never responds
     (its schedule goes silent right after the invocation). *)
  Runtime.spawn rt ~pid:0 ~name:"stalled-writer" (fun () ->
      let (_ : bool) = Abortable_reg.write reg 1 in
      ());
  let considered_timely = ref false in
  Runtime.spawn rt ~pid:1 ~name:"reader" (fun () ->
      let prev = ref (Some 0) in
      while true do
        let cur = Abortable_reg.read reg in
        let fresh = match cur with None -> true | Some _ -> cur <> !prev in
        considered_timely := fresh;
        prev := cur;
        for _ = 1 to 10 do
          Runtime.yield ()
        done
      done);
  let policy =
    Policy.of_patterns
      [ 0, Policy.Switch_at (1, Policy.Every { period = 1; offset = 0 }, Policy.Silent);
        1, Policy.Weighted 1.0 ]
  in
  Runtime.run rt ~policy ~steps;
  Runtime.stop rt;
  !considered_timely

let two_register_detector rt ~steps =
  let mesh = Heartbeat.registers rt ~policy:Abort_policy.Always ~n:2 () in
  let sender = Heartbeat.create ~me:0 ~mesh in
  let receiver = Heartbeat.create ~me:1 ~mesh in
  (* Same stall: the writer freezes inside its very first register write. *)
  Runtime.spawn rt ~pid:0 ~name:"stalled-writer" (fun () ->
      while true do
        Heartbeat.send sender ~dest:[| false; true |]
      done);
  let considered_timely = ref true in
  Runtime.spawn rt ~pid:1 ~name:"reader" (fun () ->
      while true do
        let active = Heartbeat.receive receiver in
        considered_timely := active.(0);
        Runtime.yield ()
      done);
  let policy =
    Policy.of_patterns
      [ 0, Policy.Switch_at (2, Policy.Every { period = 1; offset = 0 }, Policy.Silent);
        1, Policy.Weighted 1.0 ]
  in
  Runtime.run rt ~policy ~steps;
  Runtime.stop rt;
  !considered_timely

let heartbeat_rows ~quick =
  let steps = if quick then 20_000 else 80_000 in
  let single = single_register_detector (Runtime.create ~seed:111L ~n:2 ()) ~steps in
  let double = two_register_detector (Runtime.create ~seed:111L ~n:2 ()) ~steps in
  [
    {
      ablation = "two heartbeat registers";
      variant = "as in paper (two, alternated)";
      metric = "stalled mid-write writer still deemed timely?";
      outcome = (if double then "yes (BAD)" else "no — exposed");
      healthy = not double;
    };
    {
      ablation = "two heartbeat registers";
      variant = "ablated (single register)";
      metric = "stalled mid-write writer still deemed timely?";
      outcome = (if single then "yes — fooled forever" else "no (unexpected)");
      healthy = not single;
    };
  ]

(* --- ablation 2: self-punishment on joining ----------------------------- *)

(* The paper: "This ensures that a process r that stops and starts being a
   candidate infinitely often has an unbounded CounterRegister[r], which is
   necessary to ensure that eventually r is not chosen as leader. Without
   this self-punishment, it is easy to find a scenario where r has the
   smallest CounterRegister and leadership oscillates forever."
   We measure the mechanism's direct contract: across a fixed number of
   join/leave cycles by r, its shared counter must grow at least once per
   join with self-punishment, and stalls at a small constant without it
   (only incidental timeliness-fault punishments remain — and once those dry
   up, nothing stops r from being elected on every rejoin, forever). *)
let counter_growth ~self_punishment ~quick =
  let n = 3 in
  let rt = Runtime.create ~seed:112L ~n () in
  let om = Omega_registers.install ~self_punishment rt in
  let handles = om.Omega_registers.handles in
  let joins = ref 0 in
  Runtime.spawn rt ~pid:0 ~name:"rejoiner" (fun () ->
      while true do
        Omega_spec.canonical_join handles.(0);
        incr joins;
        for _ = 1 to 300 do
          Runtime.yield ()
        done;
        Omega_spec.leave handles.(0);
        for _ = 1 to 300 do
          Runtime.yield ()
        done
      done);
  List.iter
    (fun pid ->
      Runtime.spawn rt ~pid ~name:"pcand" (fun () ->
          handles.(pid).Omega_spec.candidate := true))
    [ 1; 2 ];
  let total_steps = if quick then 240_000 else 600_000 in
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:total_steps;
  Runtime.stop rt;
  !joins, om.Omega_registers.counters.(0).Reg.peek ()

let self_punishment_rows ~quick =
  let joins_sp, counter_sp = counter_growth ~self_punishment:true ~quick in
  let joins_ab, counter_ab = counter_growth ~self_punishment:false ~quick in
  [
    {
      ablation = "self-punishment on join";
      variant = "as in paper";
      metric = "rejoiner's shared counter grows with its joins?";
      outcome = Fmt.str "%d joins, counter %d" joins_sp counter_sp;
      healthy = counter_sp >= joins_sp;
    };
    {
      ablation = "self-punishment on join";
      variant = "ablated (no self-punishment)";
      metric = "rejoiner's shared counter grows with its joins?";
      outcome = Fmt.str "%d joins, counter %d (bounded)" joins_ab counter_ab;
      healthy = counter_ab >= joins_ab;
    };
  ]

(* --- ablation 3: faultCntr increment guards ----------------------------- *)

let faults_after_crash ~increment_guards ~quick =
  let rt = Runtime.create ~seed:113L ~n:2 () in
  let mon = Activity_monitor.install ~increment_guards rt ~p:0 ~q:1 in
  mon.Activity_monitor.monitoring := true;
  mon.Activity_monitor.active_for := true;
  let steps = if quick then 40_000 else 120_000 in
  Runtime.crash_at rt ~pid:1 ~step:(steps / 4);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:(steps / 2);
  let mid = !(mon.Activity_monitor.fault_cntr) in
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:(steps / 2);
  Runtime.stop rt;
  let final = !(mon.Activity_monitor.fault_cntr) in
  mid, final

let increment_guard_rows ~quick =
  let guarded_mid, guarded_final = faults_after_crash ~increment_guards:true ~quick in
  let ablated_mid, ablated_final = faults_after_crash ~increment_guards:false ~quick in
  [
    {
      ablation = "faultCntr increment guards";
      variant = "as in paper (conditions a+b)";
      metric = "faultCntr keeps growing after q crashes?";
      outcome = Fmt.str "%d -> %d" guarded_mid guarded_final;
      healthy = guarded_final = guarded_mid;
    };
    {
      ablation = "faultCntr increment guards";
      variant = "ablated (unconditional)";
      metric = "faultCntr keeps growing after q crashes?";
      outcome = Fmt.str "%d -> %d" ablated_mid ablated_final;
      healthy = ablated_final = ablated_mid;
    };
  ]

let compute ?(quick = false) () =
  let rows =
    heartbeat_rows ~quick @ self_punishment_rows ~quick
    @ increment_guard_rows ~quick
  in
  let paper_rows, ablated_rows =
    List.partition (fun r -> r.variant.[0] = 'a' && r.variant.[1] = 's') rows
  in
  {
    rows;
    ablations_all_fail =
      List.for_all (fun r -> r.healthy) paper_rows
      && List.for_all (fun r -> not r.healthy) ablated_rows;
  }

let report fmt result =
  let table =
    Table.create
      ~title:
        "E11: ablations — each paper mechanism removed in turn; the ablated \
         variant must exhibit the failure the paper predicts"
      ~columns:[ "mechanism"; "variant"; "metric"; "outcome"; "healthy" ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [ row.ablation; row.variant; row.metric; row.outcome; Table.cell_bool row.healthy ])
    result.rows;
  Table.print fmt table
