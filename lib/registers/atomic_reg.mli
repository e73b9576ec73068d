(** Multi-writer multi-reader atomic registers.

    Each operation linearizes at its response step, which lies strictly
    inside its invocation/response window, so every history produced by this
    implementation is linearizable (the test suite checks this with the
    Wing–Gong checker in [Tbwf_check]). *)

type 'a t

val create :
  Tbwf_sim.Runtime.t -> name:string -> codec:'a Codec.t -> init:'a -> 'a t

val read : 'a t -> 'a
(** Must be called from inside a task; costs the task two steps. *)

val write : 'a t -> 'a -> unit
(** Must be called from inside a task; costs the task two steps. *)

val peek : 'a t -> 'a
(** Zero-step inspection of the current contents, for analyses and tests —
    never used by algorithm code. *)

val name : _ t -> string

(** {2 Step-machine access}

    {!Reg.shared_factory} makes the register's port from its object, and
    its handle's codec from these. *)

val shared : _ t -> Tbwf_sim.Shared.t

val encode : 'a t -> 'a -> Tbwf_sim.Value.t
val decode : 'a t -> Tbwf_sim.Value.t -> 'a
