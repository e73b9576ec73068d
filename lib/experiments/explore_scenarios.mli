(** Named scenarios for the schedule-exploration subsystem.

    Each scenario packages a runtime recipe, a task setup, a per-step
    safety invariant and a step bound, so the explorer
    ({!Tbwf_check.Explore}), the fuzzer, the [tbwf_explore] CLI and
    experiment E15 all quantify over schedules of the same library of
    situations. Two of them ([broken1], [mutex2]) contain deliberate bugs
    and exist to prove the tools can find, shrink and replay violations. *)

type t = {
  name : string;
  summary : string;
  n : int;  (** process count *)
  seed : int64;  (** runtime seed — recorded in serialized schedules *)
  max_steps : int;  (** exploration depth bound *)
  expect_violation : bool;
      (** whether exhaustive exploration must find an invariant violation *)
  scenario : Tbwf_sim.Runtime.t -> Tbwf_sim.Trace.t -> unit -> bool;
      (** spawns the tasks on a fresh runtime whose run the trace records,
          and returns the invariant *)
}

val broken1 : t
val mutex2 : t

val all : t list
val find : string -> t option

val exhaustive :
  ?max_schedules:int ->
  ?por:bool ->
  ?pool:Tbwf_parallel.Pool.t ->
  t ->
  Tbwf_check.Explore.outcome

val exhaustive_naive : ?max_schedules:int -> t -> Tbwf_check.Explore.outcome

val fuzz :
  ?seed:int64 ->
  ?runs:int ->
  ?pool:Tbwf_parallel.Pool.t ->
  t ->
  Tbwf_check.Explore.fuzz_outcome

val replay : t -> int list -> bool
(** Replay a pid schedule against the scenario's invariant; [true] iff the
    invariant held at every step. *)

val schedule_of : t -> int list -> Tbwf_sim.Schedule.t
(** Wrap a witness in a serializable schedule carrying the scenario's
    process count and seed. *)
