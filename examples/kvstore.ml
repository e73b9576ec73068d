(* A replicated-cache-style workload on a TBWF key-value store.

   Five worker processes share one KV store built with the TBWF universal
   construction over abortable registers' Ω∆ (the paper's weakest-primitive
   stack). Each worker keeps writing its own key and reading a neighbour's;
   one worker decelerates forever. The store stays consistent (every
   committed put is visible exactly once) and the timely workers never
   block on the slow one.

     dune exec examples/kvstore.exe
*)

open Tbwf_sim
open Tbwf_registers
open Tbwf_objects
open Tbwf_core

let n = 5
let steps = 300_000

let () =
  let rt = Runtime.create ~seed:14L ~n () in
  let omega =
    Tbwf_system.System.install_abortable rt ~policy:Abort_policy.Always ()
  in
  let qa =
    Qa_object.create rt ~name:"kv" ~spec:Kv_store.spec
      ~policy:Abort_policy.Always ()
  in
  let tbwf = Tbwf.make ~qa ~omega_handles:omega.handles () in
  let stats = Workload.fresh_stats ~n in
  let key pid = Fmt.str "worker-%d" pid in
  let next_op ~pid ~k =
    (* Alternate: bump own key, then read the next worker's key. *)
    if k mod 2 = 0 then Some (Kv_store.put (key pid) (Value.Int (k / 2)))
    else Some (Kv_store.get (key ((pid + 1) mod n)))
  in
  Workload.spawn_clients rt ~pids:(List.init n Fun.id) ~stats
    ~invoke:(Tbwf.invoke tbwf) ~next_op;
  (* Worker 0 decelerates forever; the rest are timely. *)
  let policy =
    Policy.of_patterns
      (List.init n (fun pid ->
           if pid = 0 then
             pid, Policy.Slowing { initial_gap = 50; growth = 1.2; burst = 16 }
           else pid, Policy.Every { period = 2 * (n - 1); offset = 2 * (pid - 1) }))
  in
  Runtime.run rt ~policy ~steps;
  Runtime.stop rt;
  Fmt.pr "per-worker completed ops: %a@."
    Fmt.(array ~sep:(any ", ") int)
    stats.Workload.completed;
  Fmt.pr "final store state: %a@." Value.pp (qa.Qa_intf.peek_state ());
  (* Consistency: each worker's key holds the sequence number of its last
     completed put (puts and gets alternate, so completed/2 puts, the last
     one writing (completed-1)/2 when odd count, etc.). *)
  let state = qa.Qa_intf.peek_state () in
  let expected pid =
    let puts = (stats.Workload.completed.(pid) + 1) / 2 in
    if puts = 0 then None else Some (Value.Int (puts - 1))
  in
  let check pid =
    let bound =
      match state with
      | Value.List items ->
        List.find_map
          (function
            | Value.Pair (Str k, v) when String.equal k (key pid) -> Some v
            | _ -> None)
          items
      | _ -> None
    in
    match bound, expected pid with
    | Some v, Some e when Value.equal v e -> true
    | None, None -> true
    | Some (Value.Int got), Some (Value.Int want) ->
      (* The worker may have a put in flight that already took effect. *)
      got = want || got = want + 1
    | _ -> false
  in
  let all_consistent = List.for_all check (List.init n Fun.id) in
  Fmt.pr "store consistent with completed puts: %b@." all_consistent;
  Fmt.pr
    "worker 0 decelerated (completed %d ops) without ever blocking the \
     timely workers.@."
    stats.Workload.completed.(0)
