(** Simulated shared objects.

    A shared object is identified by an id and a name and exposes a single
    [respond] function: the runtime calls it at the *response step* of an
    operation, passing a context that describes whether any other
    operation on the same object overlapped it. All concurrency-dependent
    semantics (atomicity, abortable aborts) are decided inside [respond]
    from that context. *)

type ctx = {
  pid : int;  (** invoking process *)
  respond_step : int;  (** current step, at which the operation takes effect *)
  overlapped : bool;
      (** true iff some other operation on the same object had a window
          overlapping this operation's window: one was in flight when this
          one was invoked, or one was invoked while this one was in flight.
          An operation is in flight until its response, until the crash or
          retirement that resolves it, or until [Runtime.stop] drops it. *)
  step_contended : bool;
      (** true iff some other process performed a step on this object
          (an invocation or a response) strictly inside this operation's
          window. Weaker than [overlapped]: an operation left pending by a
          stalled process overlaps later operations but generates no steps,
          so it does not step-contend them. Query-abortable objects abort on
          step contention (matching the step-contention-style constructions
          of reference [2]); abortable registers abort on [overlapped] (the
          harsher adversary the paper's two-register heartbeat anticipates). *)
  rng : Rng.t;  (** runtime RNG, for nondeterministic semantics *)
  op : Value.t;  (** the operation, in the {!Value} encoding *)
}

type t = private {
  id : int;
  name : string;
  respond : ctx -> Value.t;
}

val make : id:int -> name:string -> respond:(ctx -> Value.t) -> t
