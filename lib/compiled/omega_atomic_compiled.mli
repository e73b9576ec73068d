(** Compiled Ω∆ over atomic registers (Figure 3).

    {!install} mirrors [Omega_registers.install] — same mesh/register
    creation order (monitor pairs p-major via [Activity_monitor.install],
    whose shared-memory monitors are step machines on either backend,
    then the counter registers), same task names, layers and spawn order —
    and returns the same record type, so downstream consumers (the system
    stack, experiments) are backend-agnostic. *)

open Tbwf_sim
open Tbwf_omega

val machine :
  self_punishment:bool ->
  Runtime.t ->
  Omega_registers.t ->
  int ->
  int ->
  Runtime.machine
(** [machine ~self_punishment rt t p n] is process [p]'s main loop. *)

val install : ?self_punishment:bool -> Runtime.t -> Omega_registers.t
