open Tbwf_sim

type op = {
  pid : int;
  op : Value.t;
  result : Value.t;
  invoke : int;
  respond : int;
}

(* Processes are sequential, so per (pid, object) at most one operation is
   in flight: pair each respond with the pid's pending invoke. *)
let complete_ops trace ~obj_name =
  let pending : (int, int * Value.t) Hashtbl.t = Hashtbl.create 16 in
  let completed = ref [] in
  Trace.iter_ops trace (fun ev ->
      if String.equal ev.Trace.obj_name obj_name then
        match ev.phase with
        | `Invoke -> Hashtbl.replace pending ev.pid (ev.step, ev.op)
        | `Respond result ->
          (match Hashtbl.find_opt pending ev.pid with
          | Some (invoke, op) ->
            Hashtbl.remove pending ev.pid;
            completed :=
              { pid = ev.pid; op; result; invoke; respond = ev.step }
              :: !completed
          | None -> () (* response without a recorded invoke: ignore *)));
  List.rev !completed
