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

(** The object's own books, kept by the runtime that calls it and written
    only through the setters below: a runtime's per-call bookkeeping
    reads and writes fields of the object it already holds, with no
    per-runtime table to index or grow. An object belongs to the one
    runtime that registered it. *)
type t = private {
  id : int;
  name : string;
  respond : ctx -> Value.t;
  mutable events : int;  (** invocation and response events so far *)
  mutable in_flight : int;
      (** operations invoked and not yet answered, resolved or dropped;
          sinks see it already counting the invoke they are handed and no
          longer counting the respond *)
  mutable invokes : int;  (** invocations so far *)
}

val make : id:int -> name:string -> respond:(ctx -> Value.t) -> t
(** A fresh object, all three counts zero. *)

val set_events : t -> int -> unit
val set_in_flight : t -> int -> unit
val set_invokes : t -> int -> unit
