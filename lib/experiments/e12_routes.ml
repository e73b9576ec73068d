open Tbwf_sim
open Tbwf_registers
open Tbwf_objects
open Tbwf_core

type row = {
  implementation : string;
  scenario : string;
  per_pid : int array;
  total : int;
  victim_ops : int option;
}

type result = { rows : row list; tbwf_protects_victim : bool }

(* Client behaviour shared by all implementations: alternate a right-push
   and a right-pop, counting completed operations. [invoke_pair] runs one
   (push, pop) round and returns how many operations completed (always 2
   for blocking implementations). *)
let spawn_clients rt ~pids ~completed ~push ~pop =
  List.iter
    (fun pid ->
      Runtime.spawn rt ~pid ~name:"client" (fun () ->
          while true do
            push pid;
            completed.(pid) <- completed.(pid) + 1;
            pop pid;
            completed.(pid) <- completed.(pid) + 1
          done))
    pids

let hlm_stack rt ~n =
  let deque = Hlm_deque.create rt ~name:"hlm" ~capacity:(4 * n) in
  let push _pid =
    match Hlm_deque.right_push deque (Value.Int 1) with
    | `Ok | `Full -> ()
  in
  let pop _pid =
    match Hlm_deque.right_pop deque with `Value _ | `Empty -> ()
  in
  push, pop

let cas_universal_stack rt ~n =
  ignore n;
  let obj = Cas_universal.create rt ~name:"cas-deque" ~spec:Deque_obj.spec in
  let push _pid =
    ignore (Cas_universal.invoke obj (Deque_obj.push_right (Value.Int 1)))
  in
  let pop _pid = ignore (Cas_universal.invoke obj Deque_obj.pop_right) in
  push, pop

let tbwf_stack rt ~n =
  ignore n;
  let handles = Tbwf_system.System.omega rt Tbwf_system.System.Tbwf_abortable in
  let qa =
    Qa_object.create rt ~name:"tbwf-deque" ~spec:Deque_obj.spec
      ~policy:Abort_policy.Always ()
  in
  let tbwf = Tbwf.make ~qa ~omega_handles:handles () in
  let push _pid = ignore (Tbwf.invoke tbwf (Deque_obj.push_right (Value.Int 1))) in
  let pop _pid = ignore (Tbwf.invoke tbwf Deque_obj.pop_right) in
  push, pop

let run_scenario ~implementation ~scenario ~n ~policy ~steps ~victim ~make =
  let rt = Runtime.create ~seed:121L ~n () in
  let push, pop = make rt ~n in
  let completed = Array.make n 0 in
  spawn_clients rt ~pids:(List.init n Fun.id) ~completed ~push ~pop;
  Runtime.run rt ~policy:(policy ()) ~steps;
  Runtime.stop rt;
  {
    implementation;
    scenario;
    per_pid = completed;
    total = Array.fold_left ( + ) 0 completed;
    victim_ops = Option.map (fun pid -> completed.(pid)) victim;
  }

let herlihy_stack rt ~n =
  ignore n;
  let obj = Herlihy_universal.create rt ~name:"herlihy-deque" ~spec:Deque_obj.spec in
  let push _pid =
    ignore (Herlihy_universal.invoke obj (Deque_obj.push_right (Value.Int 1)))
  in
  let pop _pid = ignore (Herlihy_universal.invoke obj Deque_obj.pop_right) in
  push, pop

let bakery_stack rt ~n =
  ignore n;
  let lock = Bakery.create rt ~name:"lock" in
  let state =
    Atomic_reg.create rt ~name:"locked-deque" ~codec:Codec.value
      ~init:Deque_obj.spec.Seq_spec.initial
  in
  let apply op =
    Bakery.with_lock lock (fun () ->
        let current = Atomic_reg.read state in
        let next, _response = Seq_spec.apply_exn Deque_obj.spec current op in
        Atomic_reg.write state next)
  in
  let push _pid = apply (Deque_obj.push_right (Value.Int 1)) in
  let pop _pid = apply Deque_obj.pop_right in
  push, pop

let implementations =
  [
    "HLM deque (obstruction-free, CAS)", hlm_stack;
    "CAS universal (lock-free)", cas_universal_stack;
    "Herlihy universal (wait-free, CAS)", herlihy_stack;
    "bakery lock (blocking)", bakery_stack;
    "TBWF (abortable registers)", tbwf_stack;
  ]

(* Scenario 3: pid 0 freezes mid-protocol; report the other processes'
   completions after the freeze. Only the lock-based route lets the frozen
   process take the whole system down with it. *)
let run_frozen ~implementation ~steps ~make =
  let n = 4 in
  let freeze_at = 600 in
  let rt = Runtime.create ~seed:122L ~n () in
  let push, pop = make rt ~n in
  let completed = Array.make n 0 in
  spawn_clients rt ~pids:(List.init n Fun.id) ~completed ~push ~pop;
  let policy =
    Policy.of_patterns
      (List.init n (fun pid ->
           if pid = 0 then
             pid, Policy.Switch_at (freeze_at, Policy.Weighted 1.0, Policy.Silent)
           else pid, Policy.Weighted 1.0))
  in
  Runtime.run rt ~policy ~steps:freeze_at;
  let at_freeze = Array.copy completed in
  Runtime.run rt ~policy ~steps:(steps - freeze_at);
  Runtime.stop rt;
  let post = Array.mapi (fun i c -> c - at_freeze.(i)) completed in
  {
    implementation;
    scenario = "pid 0 freezes mid-op";
    per_pid = post;
    total = Array.fold_left ( + ) 0 post;
    victim_ops = None;
  }

let compute ?(quick = false) () =
  let steps = if quick then 60_000 else 300_000 in
  let contended =
    List.map
      (fun (implementation, make) ->
        run_scenario ~implementation ~scenario:"contended (4 timely)" ~n:4
          ~policy:Policy.round_robin ~steps ~victim:None ~make)
      implementations
  in
  (* Asymmetric: both processes timely; the victim takes one step in eight.
     Its read-apply-CAS window always contains a full attacker update. *)
  let asymmetric_policy () =
    Policy.of_patterns
      [ 0, Policy.Every { period = 8; offset = 0 }; 1, Policy.Weighted 1.0 ]
  in
  let asymmetric =
    List.map
      (fun (implementation, make) ->
        run_scenario ~implementation
          ~scenario:"asymmetric (victim timely, 1 step in 8)" ~n:2
          ~policy:asymmetric_policy ~steps ~victim:(Some 0) ~make)
      implementations
  in
  let victim name rows =
    List.find_map
      (fun r ->
        if String.length r.implementation >= String.length name
           && String.sub r.implementation 0 (String.length name) = name
        then r.victim_ops
        else None)
      rows
  in
  let frozen =
    List.map
      (fun (implementation, make) ->
        run_frozen ~implementation ~steps ~make)
      implementations
  in
  let tbwf_victim = Option.value (victim "TBWF" asymmetric) ~default:0 in
  let hlm_victim = Option.value (victim "HLM" asymmetric) ~default:0 in
  let cas_victim = Option.value (victim "CAS" asymmetric) ~default:0 in
  {
    rows = contended @ asymmetric @ frozen;
    tbwf_protects_victim =
      tbwf_victim > 0 && hlm_victim = 0 && cas_victim = 0;
  }

let report fmt result =
  let table =
    Table.create
      ~title:
        "E12: five routes to progress on the HLM deque — the per-process \
         guarantee costs either strong primitives (Herlihy) or a constant \
         factor over weak ones (TBWF)"
      ~columns:[ "implementation"; "scenario"; "per-pid ops"; "total"; "victim ops" ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.implementation;
          row.scenario;
          Table.cell_ints (Array.to_list row.per_pid);
          Table.cell_int row.total;
          (match row.victim_ops with Some v -> Table.cell_int v | None -> "-");
        ])
    result.rows;
  Table.print fmt table;
  Fmt.pf fmt
    "timely victim starves under the OF/lock-free CAS routes but completes \
     ops under TBWF (and under Herlihy helping and the bakery): %s@."
    (Table.cell_bool result.tbwf_protects_victim)
