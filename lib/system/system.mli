(** The stack registry: one place that wires every system under test.

    A {e system} is a complete object stack — an Ω∆ implementation (or
    none), a query-abortable object, and an invoke path — identified by
    {!id} and catalogued in {!registry} with its description and paper
    reference. Every consumer of a full stack (the experiment scenarios,
    the nemesis campaigns, the trace/nemesis/demo CLIs and the bench
    harness) builds it through {!build}, or through the lower-level
    {!install_atomic}/{!install_abortable}/{!install_naive} when it needs
    the raw implementation records (monitor meshes, counter registers)
    rather than a client-ready stack.

    Refactor safety is mechanized: [test/golden/system_fingerprints.txt]
    pins each system's [Trace.fingerprint] under two schedules as captured
    from the historical per-consumer wiring, and [test/test_system.ml]
    asserts {!build} still reproduces them byte-for-byte. *)

open Tbwf_sim
open Tbwf_registers
open Tbwf_omega
open Tbwf_objects
open Tbwf_core

(** {2 The registry} *)

type id =
  | Tbwf_atomic  (** Figs 2–3 Ω∆ over atomic registers + Fig 7 (Thm 11–12, 14) *)
  | Tbwf_abortable  (** Figs 4–6 Ω∆ over abortable registers + Fig 7 (Thm 13) *)
  | Tbwf_universal
      (** as [Tbwf_abortable] but with the query-abortable object itself
          built by the universal QA construction *)
  | Naive_booster  (** min-pid leader, adaptive timeouts, no punishment *)
  | Retry  (** obstruction-free retry, no boosting at all *)

type info = {
  id : id;
  name : string;  (** stable CLI identifier, e.g. ["tbwf-atomic"] *)
  summary : string;  (** one-line description *)
  figure : string;  (** paper reference (figures/theorems/sections) *)
}

val registry : info list
(** All five systems, paper systems first. *)

val all : id list
val paper_systems : id list
val baseline_systems : id list

val info : id -> info
val to_string : id -> string
val of_string : string -> (id, string) result
(** Total inverse of {!to_string} over registry names; [Error] lists the
    known names. *)

val pp : Format.formatter -> id -> unit

val pp_registry : Format.formatter -> unit -> unit
(** The [list-systems] rendering: one entry per system with its summary
    and paper reference. *)

(** {2 Low-level wiring}

    Named entry points over the individual installers, so that stack
    construction outside [lib/system] is grep-verifiably confined to this
    module (tests excepted). They return the full implementation records —
    monitor meshes, counter registers, heartbeat meshes — for experiments
    that measure the internals rather than the client interface. *)

val install_atomic :
  ?self_punishment:bool ->
  ?factory:Reg.factory ->
  ?n:int ->
  Runtime.t ->
  Omega_registers.t
(** The Figure 3 Ω∆ over activity monitors and atomic registers.
    [self_punishment] (default true) is the E11 ablation switch.
    [factory]/[n] select the register substrate and restrict the election
    (see {!Omega_registers.install}). *)

val install_abortable :
  ?factory:Reg.factory ->
  ?n:int ->
  Runtime.t ->
  policy:Abort_policy.t ->
  ?write_effect:Abort_policy.write_effect ->
  unit ->
  Omega_abortable.t
(** The Figure 6 Ω∆ over abortable registers; [policy] governs when
    concurrent register operations abort. *)

val install_naive :
  ?factory:Reg.factory -> ?n:int -> Runtime.t -> Baselines.Naive_booster.t
(** The non-gracefully-degrading booster baseline. *)

(** {2 Building a full stack} *)

(** What the stack's registers are made of.

    [Shared_memory] is the paper's model: registers are simulator shared
    objects with intrinsic timeliness. [Message_passing config] replaces
    every register the Ω∆ uses with an emulation over a simulated
    crash-prone network ({!Tbwf_net.Net}): atomic MWMR registers by the
    ABD quorum protocol, SWMR regular registers by the one-phase
    time-efficient protocol, served by [config.replicas] replica
    processes appended after the [n] clients. Register timeliness then
    becomes {e emergent} — a function of link timeliness to a live
    replica majority.

    The query-abortable object itself stays a shared simulator object on
    both substrates: QA has consensus number > 1, so it cannot be built
    from message-passing registers alone — the substrate axis moves
    exactly the part of the stack the paper builds from registers. *)
type substrate = Shared_memory | Message_passing of Tbwf_net.Net.config

val substrate_name : substrate -> string
(** ["shared-memory"] / ["message-passing"] — the CLI identifiers. *)

val substrate_of_name : string -> (substrate, string) result
(** Inverse of {!substrate_name}; ["message-passing"] maps to
    {!Tbwf_net.Net.default_config}. [Error] lists the known names. *)

type stack = {
  system : id;
  substrate : substrate;
  rt : Runtime.t;
  net : Tbwf_net.Net.t option;
      (** the simulated network; [None] on shared memory *)
  cluster : Mp_reg.Cluster.t option;
      (** the replica cluster serving the registers; [None] on shared
          memory *)
  handles : Omega_spec.handle array;
      (** Ω∆ output handles, indexed by pid; [[||]] for {!Retry} *)
  qa : Qa_intf.t;
  tbwf : Tbwf.t option;  (** [None] for {!Retry} (no transformation) *)
  invoke : Value.t -> Value.t;
      (** the system's operation path as a fiber call, for clients a
          caller spawns itself (with [client_pids:[]]): [Tbwf.invoke] for
          boosted systems, [Baselines.retry_invoke] for {!Retry} *)
  stats : Workload.stats;
  trace : Trace.t option;
      (** the run trace, recorded by a {!Trace.recorder} installed before
          anything else; [None] when built with [record_trace:false] *)
  telemetry : Tbwf_telemetry.Collector.t option;
      (** the collector, teed after the recorder when both are on *)
}

val build :
  ?backend:Backend.t ->
  ?substrate:substrate ->
  ?seed:int64 ->
  ?record_trace:bool ->
  ?canonical:bool ->
  ?qa_policy:Abort_policy.t ->
  ?mesh_policy:Abort_policy.t ->
  ?qa_universal:bool ->
  ?spec:Seq_spec.t ->
  ?next_op:(pid:int -> k:int -> Value.t option) ->
  ?client_pids:int list ->
  ?telemetry:bool ->
  ?telemetry_window:int ->
  ?telemetry_retain:int ->
  n:int ->
  id ->
  stack
(** Wire one system end to end: create the runtime, optionally attach a
    telemetry collector, install the system's Ω∆, create its
    query-abortable object (named [spec.name ^ "-qa"]), assemble the
    invoke path and spawn the client workload: one ["client"] step
    machine per pid in [client_pids] ([Tbwf.spawn_clients], ungated for
    {!Retry}), on both substrates.
    Each takes the steps [Workload.spawn_clients ~invoke] would take over
    [invoke].

    Defaults: [canonical:true] (Definition 6's leader-wait guard),
    [qa_policy]/[mesh_policy] always-abort-on-contention, [qa_universal]
    per the system (true only for {!Tbwf_universal}; overridable, e.g. an
    atomic-Ω∆ stack over the universal QA object), [spec] the counter,
    [next_op] an endless stream of increments, [client_pids] all pids,
    [telemetry:false].

    [record_trace] (default true) installs a {!Trace.recorder} as the
    runtime's first sink and returns its trace in [trace]. The run is
    byte-identical either way, so a driver that never reads the trace
    passes [false] and keeps its memory independent of the horizon. A
    driver that adds observers later tees them onto [Runtime.sink], which
    keeps the recorder and the collector in place.
    [telemetry_retain] bounds the collector's per-window series to the
    most recent windows (see {!Tbwf_telemetry.Collector.attach}); with
    [record_trace:false] it is the memory-bounded configuration long soak
    runs use.

    [substrate] (default {!Shared_memory}) selects what registers are
    made of; with [Message_passing config] the runtime is created
    [n + config.replicas] processes wide, the network and replica cluster
    are wired between the collector and the Ω∆, and the Ω∆ installs with
    the quorum-register factory restricted to the [n] client pids.

    Wiring order (runtime, recorder, collector, [network, cluster,] Ω∆, QA,
    transformation, workload) is part of the determinism contract: it
    fixes the object-id assignment and hence the trace fingerprint for a
    given (seed, policy, code).

    [backend] is ignored: both {!Backend.t} values build this same
    stack. It stays only while the benchmark still names
    [Backend.Compiled]. *)
