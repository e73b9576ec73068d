(** Ω∆ from activity monitors and atomic registers — paper Section 5.2,
    Figure 3 (Theorems 11–12).

    Each candidate process maintains, for every process q, a shared counter
    [CounterRegister[q]] of how many times q was considered "bad" for
    leadership: q increments its own counter whenever it (re)joins the
    competition (the self-punishment that keeps repeated candidates from
    destabilizing the election), and any candidate p increments
    [CounterRegister[q]] when its activity monitor A(p,q) suspects q of not
    being p-timely. Candidates pick as leader the active process with the
    lexicographically smallest (counter, pid), and advertise activity to
    others only while they consider themselves the leader — which makes the
    implementation write-efficient: eventually only the leader (and
    repeatedly joining candidates) write to shared registers. *)

type t = {
  handles : Omega_spec.handle array;  (** indexed by pid *)
  monitors : Tbwf_monitor.Activity_monitor.t option array array;
      (** [monitors.(p).(q)] is A(p,q); [None] on the diagonal *)
  counters : int Tbwf_registers.Reg.t array;
      (** [CounterRegister[q]], multi-writer atomic (a handle: backed by a
          shared object or by the ABD emulation, per the wiring factory) *)
}

val install :
  ?self_punishment:bool ->
  ?factory:Tbwf_registers.Reg.factory ->
  ?n:int ->
  Tbwf_sim.Runtime.t ->
  t
(** Create the full monitor mesh and counter registers, and spawn each
    process's Ω∆ main task. Every process starts as a non-candidate.

    [self_punishment] (default true) enables Figure 3's lines 7–8: a
    process increments its own counter every time it (re)joins the
    competition. Disabling it is the ablation of experiment E11 — the
    paper notes that without it a repeatedly-joining process with the
    smallest counter makes leadership oscillate forever.

    [factory] selects the register substrate (default:
    {!Tbwf_registers.Reg.shared_factory}); [n] restricts the election to
    processes 0..n-1 (default: all of the runtime's processes — pass it
    when the runtime also hosts replica server pids that take no part in
    the election).

    Each process's loop is a step machine on either substrate, its
    counter operations run through the registers' ports, as the activity
    monitors' loops are. *)
