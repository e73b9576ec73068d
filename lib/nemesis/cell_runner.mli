(** One cell: a fault plan against one built stack, run to the plan's
    horizon and judged by the graceful-degradation contract.

    {!Campaign.run_plan}, the world's shards and the soak CLI's shards
    all run through {!run}, so the tail boundary, the prediction, the
    substrate's rate floor and the sink wiring exist once. Callers keep
    their {!Tbwf_system.System.build} options and their client spawning
    (both inside [build]). *)

val net_cost_factor : int
(** How many steps a register operation costs over the quorum emulation
    for every one it costs on shared memory (round-trips, polled on the
    retransmit cadence): 4. *)

val cost_factor : Tbwf_system.System.substrate -> int
(** 1 on shared memory, {!net_cost_factor} on message passing. Horizons
    stretch by it and the tail-rate floor takes it as [~cost], so verdicts
    measure degradation against the substrate's own pace. *)

val validate : n:int -> horizon:int -> window:int -> retain:int option -> unit
(** Raises [Invalid_argument] unless [n >= 2], [horizon >= 1] and the
    telemetry [window] and [retain] are positive. CLIs call it before
    fanning out, so bad input is a message, not a failed task. *)

type stream = {
  every : int;  (** one [tbwf-telemetry/v2] record per [every] steps *)
  fields : Tbwf_telemetry.Json.t -> (string * Tbwf_telemetry.Json.t) list;
      (** a record's extra fields, given the online checker's running
          verdict over exactly the steps the record covers *)
  emit : Tbwf_telemetry.Json.t -> unit;
}

type t = {
  cr_stack : Tbwf_system.System.stack;  (** stopped *)
  cr_telemetry : Tbwf_telemetry.Collector.t;
  cr_verdict : Tbwf_check.Degradation.verdict;  (** decided online *)
  cr_prediction : Tbwf_check.Degradation.prediction;
      (** [pred_from] is the tail boundary *)
  cr_min_ops : int;  (** the rate floor the verdict was judged against *)
  cr_tail_ops : int array;
      (** completions per pid over the tail, in pid order: the online
          checker's [dv_tail_ops] *)
  cr_completed_before : int array;
      (** workload completion counters at the tail boundary: the
          [completed_before] of a post-hoc
          {!Tbwf_check.Degradation.check} over a recorded trace *)
}

val run :
  plan:Fault_plan.t ->
  build:
    (qa_policy:Tbwf_registers.Abort_policy.t ->
    mesh_policy:Tbwf_registers.Abort_policy.t ->
    Tbwf_system.System.stack) ->
  stream:stream option ->
  t
(** [build] gets the plan's compiled abort policies ([Always], the
    [System.build] default, when the plan has no abort atoms) and must
    attach telemetry; an observer that must see each event before the
    collector (soak's tail monitor, so a streamed record carries the
    window it closes) is teed ahead of [Runtime.sink] inside [build].
    [run] then installs the plan's crashes, installs one sink per event
    that calls the sink the build installed (so a recorder the build
    attached keeps recording), then the online checker, and runs under
    the plan's policy to its horizon, pausing at the tail boundary to
    snapshot completions and arm the checker's step hook (before the tail
    it has nothing to judge).
    The tail is the last quarter of the horizon,
    or from the plan's settle step if that is later: the contract is
    "keeps progressing after the last fault". The floor is
    {!Tbwf_check.Degradation.required_tail_ops} at the substrate's
    {!cost_factor}. The stream's last window is flushed and the runtime
    stopped before [run] returns. *)
