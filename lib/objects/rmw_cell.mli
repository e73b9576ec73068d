(** Abortable read-modify-write cell.

    A cell holding a {!Tbwf_sim.Value} state with two operations on its
    shared object ({!shared}): [Pair (Str "rmw", op)] applies a transition
    function fixed at creation time to [op] and returns the response or
    [Abort], and {!Tbwf_sim.Value.read_op} returns the current state or
    [Abort]. Like an abortable register, any operation whose
    window overlaps another operation's may abort (⊥); an aborted [rmw] may
    or may not have taken effect; solo operations never abort.

    This is the base primitive of {!Qa_universal}. It knows nothing about
    queries or fates — those are built {e on top of} it by storing a fate
    log inside the cell's state. *)

type t

val create :
  Tbwf_sim.Runtime.t ->
  name:string ->
  init:Tbwf_sim.Value.t ->
  transition:
    (Tbwf_sim.Value.t -> Tbwf_sim.Value.t -> (Tbwf_sim.Value.t * Tbwf_sim.Value.t) option) ->
  policy:Tbwf_registers.Abort_policy.t ->
  ?effect_on_abort:Tbwf_registers.Abort_policy.write_effect ->
  unit ->
  t
(** [transition state op] returns [Some (state', response)] or [None] for an
    illegal op (which raises at the caller). *)

val peek : t -> Tbwf_sim.Value.t

val shared : t -> Tbwf_sim.Shared.t
(** The underlying simulated object, which {!Qa_universal}'s call view
    names. *)
