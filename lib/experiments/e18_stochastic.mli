(** E18: the "practically wait-free" effect — per-operation
    completion-time tails for all five systems under a uniform stochastic
    scheduler vs the E2 adversary, from the telemetry quantile sketches.
    Reproduces the qualitative claim of Alistarh, Censor-Hillel and
    Shavit (Are lock-free concurrent algorithms practically wait-free?):
    stochastic scheduling makes every system's tails tight; the adversary
    blows up the baselines' tails while the TBWF systems stay bounded. *)

type regime = Uniform | Adversarial

type cell = {
  completed : int;
  ops_observed : int;
  p50 : int;
  p99 : int;
  p999 : int;
  max_time : int;
}

type result = {
  n : int;
  steps : int;
  cells : (Tbwf_system.System.id * (regime * cell) list) list;
  tbwf_min_retention : float;
      (** min over paper systems of (adversary completed / uniform
          completed) *)
  baseline_max_retention : float;  (** same ratio, max over baselines *)
}

val compute : ?quick:bool -> unit -> result
val report : Format.formatter -> result -> unit
