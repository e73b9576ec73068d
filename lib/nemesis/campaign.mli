(** Named fault-injection campaigns with graceful-degradation verdicts.

    A campaign is a fault plan shape (instantiated per run size) plus a
    prediction of which systems violate the TBWF contract under it. Running
    a campaign builds each system's full stack — Ω∆, the query-abortable
    object, one counter client per process — compiles the plan into the
    scheduler/crash/abort hooks, executes to the horizon, and verdicts the
    tail with {!Tbwf_check.Degradation.check}.

    Each catalogue campaign headlines one fault atom, and each keeps a
    slowing control on process 0 so that the baselines — whose registers
    are atomic and therefore blind to the channel-level atoms — have a
    fault to mishandle: the campaigns double as negative controls showing
    the checker rejects boosting-style algorithms. *)

(** {2 Systems under test}

    The catalogue of systems is owned by {!Tbwf_system.System}; the type
    is re-exported (with the equation visible) so campaign code and
    registry code interoperate without conversion. *)

type system = Tbwf_system.System.id =
  | Tbwf_atomic  (** Figs 2–3 Ω∆ over atomic registers + Fig 7 (Thm 11–12, 14) *)
  | Tbwf_abortable  (** Figs 4–6 Ω∆ over abortable registers + Fig 7 (Thm 13) *)
  | Tbwf_universal
      (** as [Tbwf_abortable] but with the query-abortable object itself
          built by the universal QA construction *)
  | Naive_booster  (** min-pid leader, adaptive timeouts, no punishment *)
  | Retry  (** obstruction-free retry, no boosting at all *)

val system_name : system -> string
val system_of_name : string -> (system, string) result
val paper_systems : system list
val baseline_systems : system list
val all_systems : system list

(** {2 Running one plan against one system} *)

type run_result = {
  rr_system : system;
  rr_verdict : Tbwf_check.Degradation.verdict;
  rr_online : Tbwf_check.Degradation.verdict;
      (** the same contract decided incrementally by
          {!Tbwf_check.Degradation.Online} from the sink stream while the
          run executed, without consulting the recorded trace. Equal to
          [rr_verdict] field for field — the differential invariant
          [test/test_nemesis.ml] checks across the whole matrix — and the
          verdict long-horizon runs rely on when trace recording is off *)
  rr_min_ops : int;
      (** the rate floor {!Cell_runner.run} judged the verdict against *)
  rr_tail_steps : int;
  rr_tail_ops : int array;
      (** measured workload completions per pid over the tail window, from
          the run's telemetry collector — the same numbers the verdict is
          computed from, cited so a verdict is auditable *)
  rr_telemetry : Tbwf_telemetry.Collector.t;
      (** the run's full telemetry collector; [Collector.snapshot] exports
          it as JSON *)
  rr_seconds : float;
      (** wall-clock seconds the cell took (build + run + verdict) — for
          stderr diagnostics only; never part of deterministic output *)
}

val default_seed : int64

val required_tail_ops : n:int -> tail:int -> int
(** The default rate floor for a [tail]-step tail with [n] processes —
    {!Tbwf_check.Degradation.required_tail_ops}, re-exported. The constant
    and its rationale live in one place: the
    {!Tbwf_check.Degradation.tail_rate_denominator} doc comment. *)

val run_plan :
  ?backend:Tbwf_sim.Backend.t ->
  ?substrate:Tbwf_system.System.substrate ->
  ?seed:int64 ->
  ?stream:int * (Tbwf_telemetry.Json.t -> unit) ->
  plan:Fault_plan.t ->
  system:system ->
  unit ->
  run_result
(** Run [plan] against the registry's stock stack for [system] (one
    counter client per process, trace recorded) through
    {!Cell_runner.run}, which owns the tail boundary, the prediction, the
    substrate's floor and the online verdict; then check the recorded
    trace post hoc into [rr_verdict]. [backend] selects the execution
    backend for the stack (default reference); verdicts and telemetry
    are identical either way.

    [substrate] (default shared memory) selects what the Ω∆'s registers
    are made of. On a message-passing substrate the plan's network atoms
    compile into the network's event list, the replica count is taken
    from the plan (or from the config for a replica-less plan, which is
    re-made to schedule the replica pids), and the verdict exempts
    clients the plan cuts off from a live replica majority (emergent
    untimeliness — see {!Tbwf_check.Degradation}).

    [stream] = [(every, emit)] arranges one [tbwf-telemetry/v2] record
    per [every]-step window ({!Tbwf_telemetry.Collector.emit_every}),
    each carrying the online checker's running verdict under
    ["verdict"]; the final partial window is flushed before the runtime
    stops. Raises
    [Invalid_argument] for a plan with replica/network atoms on shared
    memory, and (via {!Tbwf_system.System.build}) for message passing on
    the compiled backend. *)

(** {2 The campaign catalogue} *)

type t

val name : t -> string
val summary : t -> string

val headline_atom : t -> string
(** The fault-atom kind this campaign exercises ("slow", "timely",
    "flicker", "crash", "abort-ramp", "staleness"). *)

val expect_fail : t -> system list
val plan : t -> n:int -> horizon:int -> Fault_plan.t

val catalogue : t list
(** Six campaigns, at least one per fault atom; every one expects the
    paper systems to pass and the baselines to fail. *)

val net_replicas : int
(** Replica count the network campaigns are written for (3: the smallest
    cluster with a crash-tolerant majority). *)

val net_catalogue : t list
(** Six message-passing campaigns, at least one per network fault atom
    (partition/heal, drop, delay-ramp, replica crash), each keeping the
    slowdown control. Their plans carry [replicas = net_replicas] and
    require a message-passing substrate to run. *)

val find : string -> t option
(** Searches {!catalogue} then {!net_catalogue}. *)

val dimensions : quick:bool -> int * int
(** [(n, horizon)]: (4, 96k) quick, (6, 480k) full. *)

val net_cost_factor : int
(** {!Cell_runner.net_cost_factor}, re-exported: campaign horizons on
    message passing stretch by it (see {!substrate_dimensions}). *)

val substrate_dimensions :
  ?substrate:Tbwf_system.System.substrate -> quick:bool -> unit -> int * int
(** {!dimensions}, with the horizon scaled by {!net_cost_factor} on a
    message-passing substrate — the dimensions {!run} and {!run_matrix}
    actually use. *)

(** {2 Campaign outcomes} *)

type row = {
  row_system : system;
  row_expected_fail : bool;
  row_result : run_result;
  row_as_expected : bool;
}

type outcome = {
  o_campaign : t;
  o_plan : Fault_plan.t;
  o_rows : row list;
  o_ok : bool;  (** every system behaved as the campaign predicts *)
}

val run :
  ?backend:Tbwf_sim.Backend.t ->
  ?substrate:Tbwf_system.System.substrate ->
  ?quick:bool ->
  ?seed:int64 ->
  ?pool:Tbwf_parallel.Pool.t ->
  ?systems:system list ->
  t ->
  outcome
(** [run campaign] (default [quick:true], all systems) instantiates the
    campaign's plan at {!dimensions} and verdicts every system. [pool]
    folds one task per system ({!Tbwf_parallel.Pool.fold}; each builds
    its own stack); rows come back in [systems] order regardless of
    domain count. *)

(** {2 The full matrix} *)

type matrix = {
  m_outcomes : outcome list;  (** one per catalogue campaign, in order *)
  m_ok : bool;
  m_telemetry : Tbwf_telemetry.Collector.t;
      (** all cells' collectors folded with
          {!Tbwf_telemetry.Collector.merge} in cell order — the aggregate
          view of every run in the matrix *)
}

val run_matrix :
  ?backend:Tbwf_sim.Backend.t ->
  ?substrate:Tbwf_system.System.substrate ->
  ?pool:Tbwf_parallel.Pool.t ->
  ?quick:bool ->
  ?seed:int64 ->
  ?systems:system list ->
  unit ->
  matrix
(** Run every catalogue campaign against every system, one pool task per
    (campaign, system) cell, campaign-major. Outcomes regroup in
    catalogue order and the aggregate collector folds in cell order, so
    the matrix — including the merged telemetry snapshot — is
    byte-identical at any domain count.

    With a message-passing [substrate] the matrix gains the network
    axis: the stock campaigns re-run with emergent register timeliness,
    followed by {!net_catalogue} — the E16-style answer to whether TBWF
    graceful degradation survives when register timeliness is emergent
    rather than assumed. *)

val pp_row : Format.formatter -> row -> unit
val pp_outcome : Format.formatter -> outcome -> unit
