(** Multi-writer multi-reader registers with compare-and-swap.

    The paper's §1.2 recalls that any object has a wait-free implementation
    from strong primitives like compare-and-swap [9], and the boosting
    baseline of [11] uses CAS; this register type is the substrate for those
    comparison points (the obstruction-free deque of reference [10] in
    {!Tbwf_objects.Hlm_deque} and the lock-free universal construction in
    {!Tbwf_objects.Cas_universal}). The TBWF stack itself never touches it. *)

type 'a t

val create :
  Tbwf_sim.Runtime.t -> name:string -> codec:'a Codec.t -> init:'a -> 'a t

val read : 'a t -> 'a

val write : 'a t -> 'a -> unit

val cas : 'a t -> expected:'a -> desired:'a -> bool
(** Atomically: if the current contents equals [expected] (structurally),
    replace it with [desired] and return true; otherwise return false.
    Linearizes at the response step like every simulated operation. *)

val peek : 'a t -> 'a
