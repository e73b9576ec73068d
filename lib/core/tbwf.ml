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

type attempt = Run_op | Run_query

(* Figure 7, procedure invoke(op, O, T). *)
let invoke t op =
  let pid = Runtime.self () in
  let handle = t.omega_handles.(pid) in
  let is_leader () = Omega_spec.leads !(handle.Omega_spec.leader) pid in
  if t.canonical then Runtime.await (fun () -> not (is_leader ()));
  handle.Omega_spec.candidate := true;
  (* Each attempt waits to be leader first: a wait that finds it leader
     costs no step, and each step of a longer one is one test. *)
  let rec attempt next =
    Runtime.await is_leader;
    let res =
      match next with
      | Run_op -> t.qa.Qa_intf.invoke op
      | Run_query -> t.qa.Qa_intf.query ()
    in
    match res with
    | Value.Abort -> attempt Run_query
    | Value.Fail -> attempt Run_op
    | response ->
      handle.Omega_spec.candidate := false;
      response
  in
  attempt Run_op

let qa t = t.qa
let handles t = t.omega_handles
