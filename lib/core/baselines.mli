(** Baselines the paper argues against (Sections 1.2 and 2).

    - {!retry_invoke}: a plain obstruction-free object with no boosting —
      each process retries its operation on O_QA until it succeeds. Under
      contention with a hostile abort policy nobody need ever complete
      (only solo runs are guaranteed), which is exactly obstruction-freedom
      and nothing more.

    - {!Naive_booster}: a boosting transformation in the style of
      [7, 8, 11]: leader-based arbitration where the leader is simply the
      {e smallest alive-looking pid} — there is no punishment of processes
      that keep failing to be timely, because these algorithms assume all
      correct processes are timely. A flickering low-pid process therefore
      recaptures leadership after every sleep, and because the failure
      detector's timeout adapts upward, the periods during which everyone
      waits for it grow without bound: a single non-timely process ruins
      the progress of all the timely ones (the paper's non-graceful
      degradation scenario, experiment E2). *)

val retry_invoke : Tbwf_objects.Qa_intf.t -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t
(** Run one operation with the op/query/retry automaton of Figure 8
    ({!Tbwf.retry_with}) but no leader gate. Obstruction-free; may loop
    forever under contention. Its machine form is {!Tbwf.spawn_clients}
    with no gate. *)

module Naive_booster : sig
  type t = {
    handles : Tbwf_omega.Omega_spec.handle array;
    monitors : Tbwf_monitor.Activity_monitor.t option array array;
  }

  val install :
    ?factory:Tbwf_registers.Reg.factory -> ?n:int -> Tbwf_sim.Runtime.t -> t
  (** Spawn per-process election tasks using the same activity monitors as
      the real Ω∆ implementation, but electing min-pid-alive and never
      punishing timeliness faults. [factory]/[n] as in
      {!Tbwf_omega.Omega_registers.install}. The election loop makes no
      shared-object call, so it runs as a step machine
      ({!Tbwf_sim.Runtime.spawn_machine}) on every substrate; only the
      monitors' form follows the factory. *)
end
