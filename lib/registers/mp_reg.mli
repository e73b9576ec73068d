(** Message-passing register emulations over {!Tbwf_net.Net}.

    A {!Cluster.t} runs one server step machine per replica (pids
    [n_clients .. n_clients+replicas-1]); every register allocated from
    the cluster is a slice of each replica's state, multiplexed over the
    replica's inbox by register id. Registers tolerate a {e minority} of
    replica crashes: an operation completes once a majority of replicas
    answered, and blocks (retransmitting) while no live majority is
    reachable — which is precisely how the fault surface below the
    register abstraction becomes visible to the TBWF layers above it.

    Each operation is a step machine of quorum rounds, run through the
    register's {!Reg.Port.t}: a caller's port keeps its round's reply
    slots and counters from one operation to the next.

    Three emulations:

    - {!atomic}: MWMR atomic, ABD-style. Reads are two-phase (query the
      highest [(ts, wid)] tag from a majority, then write it back to a
      majority before returning, so a later read can never observe an
      older value); writes query the highest timestamp, then write
      [(ts+1, self)] to a majority.
    - {!regular}: SWMR regular, the time-efficient variant (after
      Mostéfaoui–Raynal): the unique writer numbers its writes locally,
      so writes and reads are both single-phase — half the round trips,
      at the cost of regular (not atomic) semantics, which is exactly
      what single-writer heartbeat-style users need.
    - {!abortable}: SWSR abortable over {!regular}. The abort decision is
      made client-side, before any message leaves: contention-gated
      policies ([Always]/[Random]/...) never fire here because a quorum
      emulation serializes at the replicas rather than detecting overlap
      — aborting is a permission, not an obligation, so this is a legal
      implementation of the spec — while [Unconditional] fault-injection
      policies (abort ramps, staleness windows) fire exactly as they do
      on shared memory. An aborted write that "takes effect" performs
      the full quorum write and still reports ⊥.

    Determinism: client-side draws (abort decisions, write effects) come
    from the runtime's object stream at the deciding task's current step;
    all network draws happen inside inbox responds. Both are fixed by the
    schedule, so runs replay byte-identically. *)

module Cluster : sig
  type t

  val create : Tbwf_sim.Runtime.t -> net:Tbwf_net.Net.t -> t
  (** Spawn one server task per replica ("replica[r]", layer
      {!Tbwf_sim.Sink.Other}) and return the allocation handle. Call
      after [Net.create], before spawning clients. *)

  val net : t -> Tbwf_net.Net.t
end

val atomic :
  Cluster.t -> name:string -> codec:'a Codec.t -> init:'a -> 'a Reg.t

val regular :
  Cluster.t ->
  name:string ->
  codec:'a Codec.t ->
  init:'a ->
  writer:int ->
  'a Reg.t
(** Only [writer] may write (checked); anyone may read. *)

val abortable :
  Cluster.t ->
  name:string ->
  codec:'a Codec.t ->
  init:'a ->
  writer:int ->
  reader:int ->
  policy:Abort_policy.t ->
  write_effect:Abort_policy.write_effect option ->
  'a Reg.Abortable.t

val factory : Cluster.t -> Reg.factory
(** [Mwmr ↦ atomic], [Swmr ↦ regular], abortable as above: the
    message-passing substrate for [System.build]. *)
