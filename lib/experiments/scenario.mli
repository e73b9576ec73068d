(** Common scenario pieces for the experiment suite: the Ω∆ variants
    the Ω∆-only experiments install, and the degraded schedule with the
    prediction that judges it. Full stacks come from
    {!Tbwf_system.System.build}. *)

type omega_impl =
  | Omega_atomic  (** Figure 3 over activity monitors and atomic registers *)
  | Omega_abortable of Tbwf_registers.Abort_policy.t
      (** Figures 4–6 over abortable registers with this abort policy *)
  | Omega_naive  (** the non-gracefully-degrading booster baseline *)

val pp_omega_impl : Format.formatter -> omega_impl -> unit

val degraded_policy : n:int -> timely:int list -> Tbwf_sim.Policy.t
(** Timely pids take steps in a deterministic interleave (an [Every] claim
    each, so each is timely with bound about twice the number of timely
    processes); the rest are [Slowing] from a gap of 60 steps growing by
    1.15: processes whose step gaps grow geometrically (never timely,
    never willingly inactive), the adversary under which the baselines of
    E2 collapse. *)

val degraded_prediction :
  n:int -> timely:int list -> from:int -> Tbwf_check.Degradation.prediction
(** What a {!degraded_policy} run promises from step [from] on, on
    shared memory: the [timely] pids stay timely with bound [4n]. Judge
    the run with {!Tbwf_check.Degradation.check} at
    [Degradation.required_tail_ops ~cost:1]; a schedule that misses the
    bound shows as [dv_sched_timely = Some false]. *)
