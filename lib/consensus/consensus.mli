(** Consensus from Ω∆ and atomic registers.

    The paper's Section 1.2 closes with the observation that implementing
    Ω∆ from abortable registers "implies that one can implement Ω — a
    failure detector which is sufficient to solve consensus — in a system
    with abortable registers and only one timely process". This module makes
    that remark executable: {!Omega_adapter} turns Ω∆ into the classic Ω
    (every correct process competes forever, so Pcandidates = correct
    processes and a timely process is eventually everyone's stable leader),
    and {!propose} runs a shared-memory ballot-based consensus in the style
    of Disk Paxos (Gafni & Lamport) whose liveness needs exactly that
    eventual leader.

    Safety (agreement and validity) holds in every run regardless of
    timeliness; termination for a process p needs p to keep taking steps and
    some timely process to exist. *)

module Omega_adapter : sig
  type t

  val attach : Tbwf_omega.Omega_spec.handle array -> t
  (** Use the handles of an installed Ω∆ implementation as an Ω. *)

  val join : t -> pid:int -> unit
  (** Canonically join the leader competition (Definition 6: waits until
      [pid] is not the current leader, then raises its candidate flag).
      Must run inside one of [pid]'s tasks. *)

  val leave : t -> pid:int -> unit
  (** Withdraw from the competition. Proposers leave once they have
      decided, so an idle process can never hold leadership and starve
      active proposers. *)

  val trusted : t -> pid:int -> int
  (** The process [pid] currently trusts as leader: Ω∆'s output if it names
      someone, [pid] itself while the output is "?". Eventually equal at all
      correct processes when a timely permanent candidate exists. *)
end

type t

val create :
  Tbwf_sim.Runtime.t ->
  name:string ->
  omega:Omega_adapter.t ->
  t
(** One single-shot consensus instance: a per-process ballot register block
    x[p] = (mbal, bal, input) — single-writer, multi-reader — plus a shared
    decision register. *)

val propose : t -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t
(** Propose a value and return the decided value. Must run inside a task;
    canonically joins the leader competition, runs ballots while trusted
    leader, adopts any decision it observes, and withdraws on return. *)
