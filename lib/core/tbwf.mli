(** The timeliness-based wait-free universal construction — paper Section 7,
    Figure 7 (Theorems 14–15).

    Given a wait-free query-abortable object O_QA (any {!Tbwf_objects.Qa_intf.t})
    and the dynamic leader elector Ω∆, [invoke] executes an operation of the
    underlying type T so that every process that is timely in the run
    completes each of its operations in a finite number of its own steps
    (Definition 3) — no matter how slow or unstable the other processes are.

    The protocol per operation (Figure 8's automaton):
    + wait until [leader ≠ self] — the canonical-use guard (Definition 6)
      that keeps one timely process from monopolizing the object;
    + become a candidate;
    + whenever elected leader, run the op against O_QA: a normal response
      finishes; ⊥ switches to [query] to learn the fate; F retries the op;
    + on success, withdraw candidacy and return.

    Pass [canonical:false] to reproduce the monopolization counterexample
    discussed at the end of Section 7 (experiment E8).

    Figure 7 has two forms that share its transitions ({!retry_with}, the
    QA call view of {!Tbwf_objects.Qa_intf}, the leader test and the
    candidacy flag): {!invoke}, a fiber call for any caller-supplied
    client, and {!client_machine}, the client as a step machine
    ({!Tbwf_sim.Runtime.spawn_machine}), which is how
    [Tbwf_system.System.build] runs its closed-loop clients on both
    substrates and [Tbwf_world.World] its open-loop ones. The two forms
    take the same steps, make the same calls and draw the same random
    values in the same order. *)

type t

val make :
  qa:Tbwf_objects.Qa_intf.t ->
  omega_handles:Tbwf_omega.Omega_spec.handle array ->
  ?canonical:bool ->
  unit ->
  t

val invoke : t -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t
(** Execute one operation of the underlying type; returns its response.
    Must run inside a task; the calling process is [Runtime.self ()]. *)

val retry_with : Tbwf_sim.Value.t -> Tbwf_objects.Qa_intf.call option
(** Figure 8's automaton, shared by every form of Figure 7 and by the
    retry baseline: the call to make after an attempt answered [res] — a
    query after ⊥, the operation again after F — or [None] when [res] is
    the operation's response. Allocates nothing. *)

val client_machine :
  Tbwf_sim.Runtime.t ->
  pid:int ->
  gate:t option ->
  qa:Tbwf_objects.Qa_intf.t ->
  stats:Workload.stats ->
  source:Workload.source ->
  Tbwf_sim.Runtime.machine
(** Client [pid] as one step machine, to spawn with
    {!Tbwf_sim.Runtime.spawn_machine} or [spawn_machine_at]. It takes the
    steps the fiber client would take over [invoke t] when
    [gate = Some t] ([t]'s QA object must be [qa]), or over
    [Baselines.retry_invoke qa], the bare op/query/retry automaton, when
    [gate = None]: [Workload.spawn_clients]'s loop for a
    [Workload.Closed next_op] source, [Workload.Open_loop.spawn_clients]'s
    for a [Workload.Open] one (the arrival clock's transitions are the
    fiber's own). A step that waits for an open-loop arrival allocates
    nothing. *)

val spawn_clients :
  Tbwf_sim.Runtime.t ->
  gate:t option ->
  qa:Tbwf_objects.Qa_intf.t ->
  pids:int list ->
  stats:Workload.stats ->
  next_op:(pid:int -> k:int -> Tbwf_sim.Value.t option) ->
  unit
(** The machine form of [Workload.spawn_clients]: one ["client"]
    {!client_machine} per pid (layer [App]) over a [Workload.Closed next_op]
    source, with the same calls, [stats] updates and [Op_complete]
    signals as the fiber loop. *)
