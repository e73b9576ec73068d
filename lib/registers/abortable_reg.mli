(** Single-writer single-reader abortable registers (paper Section 6, after
    the spec of [2]).

    An abortable register behaves like an atomic register except that an
    operation that is concurrent with another operation on the same register
    may abort, returning ⊥. An aborted read conveys no value. An aborted
    write may or may not take effect, and the writer cannot tell which.
    Operations that run solo (no overlapping operation) never abort.

    The register is single-writer single-reader: only the designated writer
    may write and only the designated reader may read; violations raise
    [Invalid_argument] (they are bugs in the algorithm, not legal runs). *)

type 'a t

val create :
  Tbwf_sim.Runtime.t ->
  name:string ->
  codec:'a Codec.t ->
  init:'a ->
  writer:int ->
  reader:int ->
  policy:Abort_policy.t ->
  ?write_effect:Abort_policy.write_effect ->
  unit ->
  'a t
(** [write_effect] defaults to [Effect_random 0.5]: each aborted write takes
    effect with probability 1/2, the least predictable adversary. *)

val read : 'a t -> 'a option
(** [None] is ⊥: the read aborted. Caller must be the designated reader. *)

val write : 'a t -> 'a -> bool
(** [false] is ⊥: the write aborted and may or may not have taken effect.
    Caller must be the designated writer. *)

val peek : 'a t -> 'a
(** Zero-step inspection for tests and analyses. *)

val name : _ t -> string

(** {2 Step-machine access}

    As for {!Atomic_reg}; [Value.Abort] answers an aborted operation. *)

val shared : _ t -> Tbwf_sim.Shared.t
val encode : 'a t -> 'a -> Tbwf_sim.Value.t
val decode : 'a t -> Tbwf_sim.Value.t -> 'a
