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

    {2 Step-machine access}

    Shared-memory handles additionally expose the underlying simulated
    object and the codec closures ([obj]/[enc]/[dec]), which is what step
    machines use to issue raw operations. Handles from a message-passing
    factory have [obj = None]: one of their operations takes many steps,
    so no machine runs over them. [Activity_monitor.install] and both Ω∆
    installers pick their loops' form from [obj], and Figure 7's client
    machines call only the query-abortable object, never a register, so
    {!obj_exn} is safe wherever machines run. *)

type 'a t = {
  name : string;
  read : unit -> 'a;  (** inside-task; two steps (shared-memory) or a
                          quorum round trip (message-passing) *)
  write : 'a -> unit;
  peek : unit -> 'a;
      (** zero-step inspection for analyses and tests; over
          message-passing this is the max-tag value across replicas *)
  obj : Tbwf_sim.Shared.t option;
  enc : 'a -> Tbwf_sim.Value.t;
  dec : Tbwf_sim.Value.t -> 'a;
}

val obj_exn : 'a t -> Tbwf_sim.Shared.t
(** The underlying shared object; raises [Invalid_argument] on a
    message-passing handle. *)

(** Abortable handles, mirroring {!Abortable_reg}'s interface. *)
module Abortable : sig
  type 'a t = {
    name : string;
    read : unit -> 'a option;  (** [None] is ⊥: the read aborted *)
    write : 'a -> bool;  (** [false] is ⊥: aborted, may have taken effect *)
    peek : unit -> 'a;
    obj : Tbwf_sim.Shared.t option;
    enc : 'a -> Tbwf_sim.Value.t;
    dec : Tbwf_sim.Value.t -> 'a;
  }

  val obj_exn : 'a t -> Tbwf_sim.Shared.t
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

val of_atomic : 'a Atomic_reg.t -> 'a t
val of_abortable : 'a Abortable_reg.t -> 'a Abortable.t

val shared_factory : Tbwf_sim.Runtime.t -> factory
(** Handles over {!Atomic_reg.create} / {!Abortable_reg.create}: the
    default substrate, bit-for-bit the historical wiring. *)
