(** Access-footprint reporting.

    Classifies shared-object accesses as reads or writes for the schedule
    explorer's independence relation ({!Tbwf_check.Independence}): two
    steps of different processes commute iff they touch disjoint objects,
    or every object they share is only {e read} by both.

    The classification is deliberately conservative in two places:

    - an operation not positively identifiable as a read (["inc"], ["cas"],
      ["rmw"], …) counts as a write, even if it happens not to change the
      state this time;
    - an {e invocation} event always counts as a write, because invoking
      moves the object's overlap counters, which abortable registers and
      query-abortable objects branch on at response time.

    Conservatism only costs reduction (fewer schedules pruned), never
    soundness. *)

type kind = Read | Write

val kind_of_event :
  phase:[ `Invoke | `Respond of Tbwf_sim.Value.t ] ->
  Tbwf_sim.Value.t ->
  kind
(** Classify one trace event: invocations are writes (see above); responses
    are classified by their operation. *)
