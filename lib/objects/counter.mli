(** Sequential counter type: increments and fetch-and-add, both returning
    the pre-operation value, plus read. *)

val spec : Seq_spec.t

(** {2 Operation encodings} *)

val inc : Tbwf_sim.Value.t
val add : int -> Tbwf_sim.Value.t
val read : Tbwf_sim.Value.t
