open Tbwf_sim
open Tbwf_omega
open Tbwf_objects

type t = {
  qa : Qa_intf.t;
  omega_handles : Omega_spec.handle array;
  canonical : bool;
}

let make ~qa ~omega_handles ?(canonical = true) () =
  { qa; omega_handles; canonical }

(* Figure 8's automaton: after ⊥ query the fate, after F run the op again;
   any other answer is the operation's response. *)
let retry_with res =
  match res with
  | Value.Abort -> Some Qa_intf.Query
  | Value.Fail -> Some Qa_intf.Invoke
  | _ -> None

let is_leader (handle : Omega_spec.handle) =
  Omega_spec.leads !(handle.Omega_spec.leader) handle.Omega_spec.pid

(* Figure 7, procedure invoke(op, O, T). *)
let invoke t op =
  let pid = Runtime.self () in
  let handle = t.omega_handles.(pid) in
  let is_leader () = is_leader handle in
  if t.canonical then Runtime.await (fun () -> not (is_leader ()));
  handle.Omega_spec.candidate := true;
  (* Each attempt waits to be leader first: a wait that finds it leader
     costs no step, and each step of a longer one is one test. *)
  let rec attempt call =
    Runtime.await is_leader;
    let res = Qa_intf.perform t.qa call op in
    match retry_with res with
    | Some call -> attempt call
    | None ->
      handle.Omega_spec.candidate := false;
      res
  in
  attempt Qa_intf.Invoke

(* Workload's client loops around Figure 7's invoke, as a step machine:
   one call of [client_step] is one step of the fiber client over [invoke]
   (or, without a [gate], over [Baselines.retry_invoke]) —
   [Workload.spawn_clients ~invoke] for a [Closed] source,
   [Workload.Open_loop.spawn_clients ~invoke] for an [Open] one — with the
   same calls, stats, signals and random draws on the same steps. pc 0:
   fetch the next operation (a closed loop's is always due; an open
   loop's waits for its arrival); 1: the canonical wait; 2: an attempt
   awaits leadership; 3: an attempt's answer arrived. *)
let client_machine rt ~pid ~(gate : t option) ~qa ~stats ~source :
    Runtime.machine =
  (* Ungated, the handle is a placeholder that nothing reads or writes. *)
  let handle =
    match gate with
    | Some t -> t.omega_handles.(pid)
    | None -> Omega_spec.make_handle ~pid
  in
  let gated = Option.is_some gate in
  let canonical = match gate with Some t -> t.canonical | None -> false in
  let k = ref 0 in
  let op = ref Value.Unit in
  let call = ref Qa_intf.Invoke in
  let pc = ref 0 in
  let rec client_step v =
    match !pc with
    | 0 -> (
      match source with
      | Workload.Closed next_op -> (
        match next_op ~pid ~k:!k with
        | None -> Runtime.M_halt
        | Some next -> fetched next v)
      | Workload.Open arrivals -> (
        match Workload.Open_loop.poll arrivals ~now:(Runtime.now rt) with
        | Workload.Open_loop.Arrived ->
          fetched (Workload.Open_loop.arrive arrivals ~k:!k) v
        | Workload.Open_loop.Waiting -> Runtime.M_yield
        | Workload.Open_loop.Exhausted -> Runtime.M_halt))
    | 1 ->
      if canonical && is_leader handle then Runtime.M_yield
      else begin
        if gated then handle.Omega_spec.candidate := true;
        pc := 2;
        client_step v
      end
    | 2 ->
      if gated && not (is_leader handle) then Runtime.M_yield
      else begin
        pc := 3;
        Runtime.M_call (qa.Qa_intf.obj, Qa_intf.operation qa ~pid !call !op)
      end
    | 3 -> (
      let res = Qa_intf.result qa ~pid !call v in
      match retry_with res with
      | Some next ->
        call := next;
        pc := 2;
        client_step Value.Unit
      | None ->
        if gated then handle.Omega_spec.candidate := false;
        Workload.complete rt stats ~pid;
        incr k;
        pc := 0;
        client_step Value.Unit)
    | _ -> assert false
  and fetched next v =
    Workload.issue stats ~pid;
    op := next;
    call := Qa_intf.Invoke;
    pc := 1;
    client_step v
  in
  client_step

let spawn_clients rt ~gate ~qa ~pids ~stats ~next_op =
  List.iter
    (fun pid ->
      Runtime.spawn_machine ~layer:Sink.App rt ~pid ~name:"client"
        (client_machine rt ~pid ~gate ~qa ~stats
           ~source:(Workload.Closed next_op)))
    pids
