open Tbwf_sim
open Tbwf_registers
open Tbwf_check
open Tbwf_system

let fuzz ?seed ?runs ?pool ?(max_atoms = 3) ?(replicas = 0) ~n ~horizon
    ~scenario ~make_runtime () =
  Explore.fuzz_faults ?seed ?runs ?pool
    ~gen_plan:(fun rng -> Fault_plan.gen ~max_atoms ~replicas rng ~n ~horizon)
    ~shrink_plan:Fault_plan.shrink ~max_steps:horizon ~scenario ~make_runtime
    ()

(* --- the demo scenario ---------------------------------------------------- *)

(* A deliberately buggy writer: it ignores the abort result of an abortable
   write and records the write as done. Solo, the write can never abort —
   the register aborts only under contention — so no schedule alone exposes
   the bug. An [Abort_ramp] atom aborts below the register abstraction,
   making "write went through" a fiction exactly when a plan says so: the
   counterexample needs both fuzzing dimensions, and shrinks to a one-atom
   plan plus a handful of steps. *)

let demo_n = 2
let demo_seed = 0xDE4003EDL

let demo_pid_count ?(substrate = System.Shared_memory) plan =
  match substrate with
  | System.Shared_memory -> demo_n
  | System.Message_passing config ->
    demo_n + max config.Tbwf_net.Net.replicas (Fault_plan.replicas plan)

let demo_make_runtime ?substrate plan () =
  let n = demo_pid_count ?substrate plan in
  let rt = Runtime.create ~seed:demo_seed ~n () in
  Fault_plan.install_crashes plan rt;
  rt

(* The invariant reads the registers, not the trace. On shared memory it
   is [peek = recorded]; on message passing a completing quorum write
   lands at the replicas before the client records it, so it is the
   monotone [peek >= recorded], which an [Effect_never] abort recorded as
   done still violates. *)
let demo_scenario ?(substrate = System.Shared_memory) plan rt _trace =
  let policy =
    Fault_plan.abort_policy plan ~target:Fault_plan.Qa
      ~base:Abort_policy.Never
  in
  let reg_write, reg_peek =
    match substrate with
    | System.Shared_memory ->
      let reg =
        Abortable_reg.create rt ~name:"demo-reg" ~codec:Codec.int ~init:(-1)
          ~writer:0 ~reader:1 ~policy
          ~write_effect:Abort_policy.Effect_never ()
      in
      Abortable_reg.write reg, fun () -> Abortable_reg.peek reg
    | System.Message_passing config ->
      let config =
        {
          config with
          Tbwf_net.Net.replicas =
            max config.Tbwf_net.Net.replicas (Fault_plan.replicas plan);
          events =
            config.Tbwf_net.Net.events @ Fault_plan.net_events plan;
        }
      in
      let net = Tbwf_net.Net.create rt ~config in
      let cluster = Mp_reg.Cluster.create rt ~net in
      let reg =
        Mp_reg.abortable cluster ~name:"demo-reg" ~codec:Codec.int ~init:(-1)
          ~writer:0 ~reader:1 ~policy
          ~write_effect:(Some Abort_policy.Effect_never)
      in
      Reg.Abortable.write reg, reg.Reg.Abortable.peek
  in
  let recorded = ref None in
  Runtime.spawn rt ~pid:0 ~name:"buggy-writer" (fun () ->
      let k = ref 0 in
      while true do
        let v = !k in
        let (_ : bool) = reg_write v in
        (* BUG: the ⊥ result is discarded; an aborted write that did not
           take effect is still recorded as the current value. *)
        recorded := Some v;
        incr k;
        Runtime.yield ()
      done);
  fun () ->
    match !recorded with
    | None -> true
    | Some v -> (
      match substrate with
      | System.Shared_memory -> reg_peek () = v
      (* On message passing a completing quorum write lands at replicas
         before the client records it, so equality would trip on honest
         in-flight states; monotonicity is the invariant that survives —
         and an Effect_never abort recorded as done still violates it. *)
      | System.Message_passing _ -> reg_peek () >= v)

let demo_replay ?substrate plan pids =
  let rt = demo_make_runtime ?substrate plan () in
  let trace = Trace.create () in
  Runtime.set_sink rt (Trace.recorder trace);
  let invariant = demo_scenario ?substrate plan rt trace in
  let held = ref (invariant ()) in
  List.iter
    (fun pid ->
      if pid >= 0 && Array.exists (fun p -> p = pid) (Runtime.runnable_pids rt)
      then begin
        Runtime.step rt ~pid;
        if not (invariant ()) then held := false
      end)
    pids;
  let fp = Trace.fingerprint trace in
  Runtime.stop rt;
  !held, fp

let demo ?seed ?(runs = 200) ?pool ?(substrate = System.Shared_memory)
    ~horizon () =
  let replicas =
    match substrate with
    | System.Shared_memory -> 0
    | System.Message_passing config -> config.Tbwf_net.Net.replicas
  in
  fuzz ?seed ~runs ?pool ~max_atoms:2 ~replicas ~n:demo_n ~horizon
    ~scenario:(demo_scenario ~substrate)
    ~make_runtime:(demo_make_runtime ~substrate) ()
