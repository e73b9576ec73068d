(** Common scenario construction for the experiment suite.

    A scenario is a full TBWF stack (Ω∆ implementation + query-abortable
    object + Figure 7 transformation + client workload) plus a schedule
    policy. *)

type omega_impl =
  | Omega_atomic  (** Figure 3 over activity monitors and atomic registers *)
  | Omega_abortable of Tbwf_registers.Abort_policy.t
      (** Figures 4–6 over abortable registers with this abort policy *)
  | Omega_naive  (** the non-gracefully-degrading booster baseline *)

val pp_omega_impl : Format.formatter -> omega_impl -> unit

type stack = {
  rt : Tbwf_sim.Runtime.t;
  handles : Tbwf_omega.Omega_spec.handle array;
  qa : Tbwf_objects.Qa_intf.t;
  tbwf : Tbwf_core.Tbwf.t;
  stats : Tbwf_core.Workload.stats;
  trace : Tbwf_sim.Trace.t option;
      (** recorded from step 0; [None] when built with
          [~record_trace:false] *)
}

val build :
  ?seed:int64 ->
  ?record_trace:bool ->
  ?canonical:bool ->
  ?qa_universal:bool ->
  ?qa_policy:Tbwf_registers.Abort_policy.t ->
  n:int ->
  omega:omega_impl ->
  spec:Tbwf_objects.Seq_spec.t ->
  next_op:(pid:int -> k:int -> Tbwf_sim.Value.t option) ->
  client_pids:int list ->
  unit ->
  stack
(** Wire a complete stack. [qa_policy] defaults to always-abort-on-
    contention; [qa_universal] selects the layered RMW-cell construction
    instead of the direct object (default false). [record_trace] (default
    true) is {!Tbwf_system.System.build}'s: a run that never reads
    [trace] passes [false]. *)

val degraded_policy :
  ?untimely_pattern:[ `Flicker of int * int * float | `Slowing of int * float ] ->
  n:int ->
  timely:int list ->
  unit ->
  Tbwf_sim.Policy.t
(** Timely pids take steps in a deterministic interleave (an [Every] claim
    each, so each is timely with bound about twice the number of timely
    processes); the rest follow [untimely_pattern] — by default
    [`Slowing (60, 1.15)], a process whose step gaps grow geometrically
    (never timely, never willingly inactive), the adversary under which the
    baselines of E2 collapse. [`Flicker (active, sleep, growth)] alternates
    eager phases with geometrically growing silences instead. *)

val degraded_prediction :
  n:int -> timely:int list -> from:int -> Tbwf_check.Degradation.prediction
(** What a {!degraded_policy} run promises from step [from] on, on
    shared memory: the [timely] pids stay timely with bound [4n]. Judge
    the run with {!Tbwf_check.Degradation.check} at
    [Degradation.required_tail_ops ~cost:1]; a schedule that misses the
    bound shows as [dv_sched_timely = Some false]. *)
