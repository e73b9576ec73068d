(** Step independence for partial-order reduction.

    Exhaustive exploration only needs to distinguish schedules up to
    commuting adjacent independent steps (Mazurkiewicz traces): if two
    steps of different processes touch disjoint sets of shared objects — or
    only read the objects they share — executing them in either order
    reaches the same state, so only one order needs exploring.

    Footprints are {e observed}, not predicted: the explorer executes a
    step, reads the operation events it recorded in the trace
    ({!Tbwf_sim.Trace.ops_from}), and classifies them with
    {!Tbwf_registers.Footprint}. Because a process's next action is a
    function of its local state alone, the footprint observed for a
    process's next step stays valid at every state where that process has
    not moved — the property sleep sets rely on. A step that recorded no
    operation events (a pure local step: yield, task completion) has the
    empty footprint and commutes with everything. *)

type access = { obj_id : int; kind : Tbwf_registers.Footprint.kind }

type footprint = access list
(** Sorted by [obj_id], at most one access per object, write dominating. *)

val empty : footprint

val of_events : Tbwf_sim.Trace.op_event list -> footprint
(** Footprint of one step, from the trace events that step recorded. *)

val commute : footprint -> footprint -> bool
(** True iff no shared object with a write on either side. Commuting steps
    are independent: they can be swapped without changing the run. *)
