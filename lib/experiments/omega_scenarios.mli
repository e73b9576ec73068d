(** Shared machinery for the Ω∆ experiments (E4, E5, E9): drive candidate
    classes against a bare Ω∆ implementation and evaluate Definition 5 /
    Theorem 7. *)

type classes = {
  pcands : int list;  (** permanent candidates: join once, never leave *)
  rcands : int list;
      (** repeated candidates: canonically join and leave forever *)
  ncands : int list;
      (** eventually non-candidates: compete briefly, then leave forever
          (pids not listed anywhere never compete at all and are also
          checked under property 2) *)
  untimely : int list;  (** scheduled to flicker (not timely) *)
  crashes : (int * int) list;  (** (pid, step) crash injections *)
}

val everyone_p : n:int -> classes
(** All processes are permanent timely candidates. *)

type outcome = {
  verdict : Tbwf_omega.Omega_spec.verdict;
  stabilization_step : int option;
      (** earliest sampled step from which every live permanent candidate's
          view stays equal to the final elected leader *)
  total_steps : int;
  samples : Tbwf_omega.Omega_spec.sample list;
}

val spawn_drivers :
  ?rcand_phase:int ->
  ?ncand_phase:int ->
  Tbwf_sim.Runtime.t ->
  Tbwf_omega.Omega_spec.handle array ->
  classes ->
  unit
(** Spawn one driver task per classed pid: pcands, then rcands, then
    ncands, each in list order. An rcand joins and leaves for
    [rcand_phase] steps each (default 400), an ncand competes for
    [ncand_phase] steps (default 600) and leaves. *)

val run :
  ?seed:int64 ->
  ?rcand_phase:int ->
  ?ncand_phase:int ->
  n:int ->
  omega:Scenario.omega_impl ->
  classes:classes ->
  segments:int ->
  segment_steps:int ->
  unit ->
  outcome
(** Install the chosen Ω∆ implementation, spawn one driver task per process
    realizing its class ({!spawn_drivers}), run with a schedule where
    [untimely] pids flicker (300 steps awake, then silences from 600 steps
    growing by 1.5) and everyone else runs with equal weight, then evaluate
    the election properties on the sampled suffix. *)
