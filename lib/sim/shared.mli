(** Simulated shared objects.

    A shared object is identified by an id and a name and exposes a single
    [respond] function: the runtime calls it at the *response step* of an
    operation, passing a context that describes the operation's window and
    whether any other operation on the same object overlapped it. All
    concurrency-dependent semantics (atomicity, safe/regular anomalies,
    abortable aborts) are decided inside [respond] from that context.

    An object registered with [Runtime.register_object ~overlaps:false]
    is {e untracked}: the runtime keeps no record of its operations in
    flight, so every context it is handed reads as a solo operation —
    [overlapped = false], [overlap_ops = []], [step_contended = false]
    and [pending_others = 0] — whatever actually overlapped it. Only
    objects whose semantics ignore concurrency (the network's inboxes)
    are registered that way. *)

type ctx = {
  pid : int;  (** invoking process *)
  invoke_step : int;  (** step at which the operation was invoked *)
  respond_step : int;  (** current step, at which the operation takes effect *)
  overlapped : bool;
      (** true iff some other operation on the same object had a window
          overlapping this operation's [invoke_step, respond_step] window *)
  overlap_ops : Value.t list;
      (** the operations (in {!Value} encoding) whose windows overlapped
          this one, most recent first *)
  step_contended : bool;
      (** true iff some other process performed a step on this object
          (an invocation or a response) strictly inside this operation's
          window. Weaker than [overlapped]: an operation left pending by a
          stalled process overlaps later operations but generates no steps,
          so it does not step-contend them. Query-abortable objects abort on
          step contention (matching the step-contention-style constructions
          of reference [2]); abortable registers abort on [overlapped] (the
          harsher adversary the paper's two-register heartbeat anticipates). *)
  pending_others : int;
      (** number of other operations on this object still in flight at the
          response step *)
  rng : Rng.t;  (** runtime RNG, for nondeterministic semantics *)
  op : Value.t;  (** the operation, in the {!Value} encoding *)
}

type t = private {
  id : int;
  name : string;
  respond : ctx -> Value.t;
  tracked : bool;  (** [false] for an untracked object, see above *)
}

val make :
  id:int -> name:string -> respond:(ctx -> Value.t) -> tracked:bool -> t
