(** Ω∆ from abortable registers only — paper Section 6, Figure 6
    (Theorem 13).

    Candidates exchange two kinds of information over SWSR abortable
    registers: eventually-stable values (their own counters and punishments,
    via {!Msg_channel}) and liveness (via the two-register {!Heartbeat}).
    Each candidate picks as leader the process with the smallest (counter,
    pid) among those it currently considers timely. Punishing q means asking
    q — through the message channel — to raise its own counter above the
    punisher's current leader's counter; a process that (re)joins the
    competition self-punishes the same way, which keeps repeatedly-joining
    candidates from destabilizing the election without making its own
    counter change forever (a counter that kept changing could never be
    propagated by the message channel).

    A process stops sending heartbeats to any q it cannot write to
    ([writeDone[q]] = false): if q keeps considering p active, q eventually
    learns p's final counter — the consistency property the correctness
    argument hinges on. *)

type t = {
  handles : Omega_spec.handle array;
  msg_registers :
    Msg_channel.payload Tbwf_registers.Reg.Abortable.t option array array;
  hb_mesh : Heartbeat.mesh;
}

val install :
  ?factory:Tbwf_registers.Reg.factory ->
  ?n:int ->
  Tbwf_sim.Runtime.t ->
  policy:Tbwf_registers.Abort_policy.t ->
  ?write_effect:Tbwf_registers.Abort_policy.write_effect ->
  unit ->
  t
(** Create all abortable registers (3 per ordered pair of processes) and
    spawn each process's Ω∆ main task. [policy] governs when concurrent
    register operations abort. [factory] selects the register substrate
    and [n] restricts the election to processes 0..n-1, as in
    {!Omega_registers.install}. Each process's loop is a step machine on
    either substrate that runs Figures 4 and 5 one register operation at a
    time through the {!Msg_channel} and {!Heartbeat} endpoints' steps. *)
