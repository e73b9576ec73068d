(** Operation histories extracted from run traces. *)

type op = {
  pid : int;
  op : Tbwf_sim.Value.t;
  result : Tbwf_sim.Value.t;
  invoke : int;  (** invocation step *)
  respond : int;  (** response step; [respond > invoke] always holds *)
}

val complete_ops : Tbwf_sim.Trace.t -> obj_name:string -> op list
(** All completed operations on the named object, in response order.
    Operations left pending at the end of the run are dropped (they are
    unconstrained for linearizability of the complete part). *)
