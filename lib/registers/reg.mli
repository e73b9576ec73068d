(** First-class register handles and register factories.

    The algorithm layers (activity monitors, the Ω∆ implementations, the
    naive baselines) only ever use a register through its operations:
    read, write, and — for analyses — peek. This module reifies that
    usage as a handle record, so the {e same} algorithm code runs over
    shared-memory registers ({!Atomic_reg}/{!Abortable_reg}) or over the
    message-passing emulations ({!Mp_reg}) depending on which {!factory}
    wired it.

    A factory is the substrate: {!shared_factory} yields handles backed by
    the simulator's shared objects (byte-identical to the pre-factory
    wiring — same object names, same creation order), and
    [Mp_reg.factory] yields handles backed by replicated server state
    reached over the simulated network.

    {2 Operations as machines}

    An operation is a small step machine on both substrates, run through
    the caller's {!Port.t}: one call on the register's object over shared
    memory, one or two quorum rounds of sends and polls over message
    passing. The paper's algorithms are step machines that run their
    operations this way, so they have one form on either substrate; the
    fiber {!read} and {!write} drive the same machine through
    {!Tbwf_sim.Runtime.call}. *)

module Port : sig
  type t
  (** How callers run a register's operations. A shared-memory register's
      port keeps no state and all callers share it. A message-passing
      register's port makes each caller its own operations, which keep
      the caller's state between operations (a quorum round's reply slots
      and counters), so a caller runs one operation at a time on them. *)

  (** One caller's operations when they take several calls. *)
  type ops = {
    read : unit -> Tbwf_sim.Runtime.machine_action;
        (** begin a read at the current step: its first call, or [M_halt]
            when it completed without one (an abortable operation that
            aborts before any message leaves) *)
    write : Tbwf_sim.Value.t -> Tbwf_sim.Runtime.machine_action;
        (** begin a write of an encoded value, likewise *)
    answer : Tbwf_sim.Value.t -> Tbwf_sim.Runtime.machine_action;
        (** the last call's answer: the next call, or [M_halt] once the
            operation completed *)
    result : unit -> Tbwf_sim.Value.t;
        (** after [M_halt], what a shared-memory register would answer:
            the encoded value read, [Value.Unit] for a write, [Value.Abort]
            for ⊥ *)
  }

  val driven : (unit -> ops) -> t
  (** The port that makes each caller's operations with the function. *)

  (** {3 A machine's operations}

      A machine keeps a {!slot} for its operation in flight, made with
      every port it uses, and begins operations with a {!reader} or
      {!writer} made once per port. Its
      step function [step] starts with [if slot.busy then Port.resume slot
      v], and is spawned as [Port.machine slot step]. An operation's
      result reaches [step] in place of [v], at the step the operation
      completes: over shared memory, as the answer of its one call. *)

  type slot = private {
    mutable busy : bool;  (** an operation of several calls is in flight *)
    mutable ops : ops;
    mutable dispatch : Tbwf_sim.Value.t -> Tbwf_sim.Runtime.machine_action;
  }

  val slot : t list -> slot
  (** [slot ports] for a machine that uses [ports]. A machine whose ports
      all answer in one call shares a slot that nothing writes. *)

  val machine :
    slot ->
    (Tbwf_sim.Value.t -> Tbwf_sim.Runtime.machine_action) ->
    Tbwf_sim.Runtime.machine
  (** [machine slot step] sends the slot's completed operations to [step]
      and returns [step]. *)

  val resume : slot -> Tbwf_sim.Value.t -> Tbwf_sim.Runtime.machine_action
  (** Feed the operation in flight its answer. *)

  val reader : slot -> t -> unit -> Tbwf_sim.Runtime.machine_action
  (** [reader slot port ()] begins a read; one that completes at once goes
      straight to [step]. Raises [Invalid_argument] for a port of several
      calls that was not given to {!slot}. *)

  val writer :
    slot -> t -> Tbwf_sim.Value.t -> Tbwf_sim.Runtime.machine_action
end

type 'a t = {
  port : Port.t;
  peek : unit -> 'a;
      (** zero-step inspection for analyses and tests; over
          message-passing this is the max-tag value across replicas *)
  enc : 'a -> Tbwf_sim.Value.t;
  dec : Tbwf_sim.Value.t -> 'a;
}

val read : 'a t -> 'a
(** Inside a fiber task, as {!write}. *)

val write : 'a t -> 'a -> unit

(** Abortable handles, mirroring {!Abortable_reg}'s interface. *)
module Abortable : sig
  type 'a t = {
    port : Port.t;
    peek : unit -> 'a;
    enc : 'a -> Tbwf_sim.Value.t;
    dec : Tbwf_sim.Value.t -> 'a;
  }

  val read : 'a t -> 'a option
  (** Inside a fiber task; [None] is ⊥: the read aborted. *)

  val write : 'a t -> 'a -> bool
  (** Inside a fiber task; [false] is ⊥: aborted, may have taken effect. *)

  val result : 'a t -> Tbwf_sim.Value.t -> 'a option
  (** A read's result as {!read} returns it. *)
end

(** What the register is used as. Shared-memory registers are MWMR
    anyway, so the shared factory ignores this; the message-passing
    factory maps [Mwmr] to the two-phase ABD atomic emulation and [Swmr]
    to the one-phase time-efficient regular emulation (sound because a
    single-writer user never needs reads-from-reads atomicity). *)
type kind = Mwmr | Swmr of { writer : int }

type factory = {
  mk_reg :
    'a.
    kind:kind ->
    name:string ->
    codec:'a Codec.t ->
    init:'a ->
    'a t;
  mk_areg :
    'a.
    name:string ->
    codec:'a Codec.t ->
    init:'a ->
    writer:int ->
    reader:int ->
    policy:Abort_policy.t ->
    write_effect:Abort_policy.write_effect option ->
    'a Abortable.t;
      (** [write_effect None] means the register's own default
          ([Effect_random 0.5]) *)
}

val shared_factory : Tbwf_sim.Runtime.t -> factory
(** Handles over {!Atomic_reg.create} / {!Abortable_reg.create}: the
    default substrate, bit-for-bit the historical wiring. *)
