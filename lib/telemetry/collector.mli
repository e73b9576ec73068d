(** The per-runtime telemetry collector.

    {!attach} builds a collector sized for the runtime and tees its sink
    after the installed one; from then on every step, operation and signal feeds the
    aggregates. Everything is keyed by the simulator's step counter and
    updated in event order, so the collector is exactly as deterministic
    as the run itself: same (seed, policy, code) ⇒ byte-identical
    {!snapshot}.

    The headline series is {!app_ops}: workload-level operation
    completions ([Sink.Op_complete], one per full [Tbwf.invoke] round
    trip) bucketed into step windows per process. This is the measured
    form of the paper's per-process rate, and it equals
    [Workload.stats.completed] by construction — for every system,
    including ones whose query-abortable object is itself built from
    many register calls. *)

open Tbwf_sim

type t

type leader_event = { le_step : int; le_leader : int }

val create : ?window:int -> ?retain:int -> n:int -> unit -> t
(** A detached collector ([window] defaults to 1024 steps); feed it by
    installing {!sink} yourself, or use {!attach}. [retain] bounds live
    memory for long-horizon runs: the rate series keeps only the most
    recent [retain] windows (see {!Series.create}) and the timestamped
    event lists (handoffs, crashes) keep only their most recent entries
    — all counts stay exact. *)

val sink : t -> Sink.t

val attach : ?window:int -> ?retain:int -> Runtime.t -> t
(** [create] sized for the runtime, its sink teed after the one already
    installed ([Runtime.sink]), so an observer attached earlier, such as
    a trace recorder, keeps its events. *)

(** {2 Streaming}

    Periodic JSONL snapshots while the run is still going: one record
    (schema {!stream_schema_version}) per stream window of [every]
    steps, each carrying cumulative counters with deltas, the per-layer
    completion-time tail sketches, leader-epoch churn and the net
    section. Records derive from event-ordered state only, so the
    stream is byte-identical under replay and any fan-out. *)

val emit_every :
  t ->
  every:int ->
  ?extra:(window:int -> (string * Json.t) list) ->
  (Json.t -> unit) ->
  unit
(** [emit_every t ~every f] arranges for [f record] to be called once
    per [every]-step window, at the first step of the following window
    (so a record always covers a completed window). [extra] appends
    caller fields to each record — the hook online checkers use to
    attach running verdicts without the telemetry layer depending on
    [lib/check]. Raises [Invalid_argument] if [every < 1]. *)

val stream_flush : t -> unit
(** Emit the record of the final (possibly partial) window and detach
    the stream. Call once after the run; no-op if no stream is set. *)

(** {2 Merging}

    Fan-out aggregation: each parallel task attaches its own collector to
    its own runtime; afterwards the per-task collectors fold into one
    merged view in canonical task order. *)

val merge : t -> t -> t
(** Fresh collector combining two finished runs' aggregates: counters and
    arrays sum, sketches merge bucket-wise, rate series merge
    cell-wise, and event lists (handoffs, crashes) interleave by step
    with ties broken left-first — commutative up to those ties, so a left
    fold in task-index order is order-fixed and domain-count-independent.
    In [retain] mode the merged event lists are re-truncated to the most
    recent entries (counts stay exact), so folding thousands of retained
    collectors stays as memory-bounded as any one of them. Run-local
    cursor state (current epoch leader, stream state) does not survive.
    Raises [Invalid_argument] if [n], [window] or retention differ. *)

val merge_all : t list -> t
(** Left fold of {!merge}; raises [Invalid_argument] on the empty list. *)

(** {2 Accessors} *)

val n : t -> int
val window : t -> int
val retain : t -> int option

val spans : t -> Span.t
val app_ops : t -> Series.t
val total_steps : t -> int
val idle_steps : t -> int
val steps_per_pid : t -> int array
val layer_steps : t -> pid:int -> Sink.layer -> int
val app_completed : t -> int array
val aborts : t -> int array

val leader_epochs : t -> int
(** Epoch boundaries: *self*-announcements changing hands — pid [l]
    announced a view naming itself while the current epoch's leader was
    someone else. Follower churn within an epoch does not count. *)

val handoffs : t -> leader_event list
(** Epoch boundaries in chronological order. *)

val leader_by_window : t -> int option array
(** Self-announced leader in effect at the end of each {!app_ops}
    window, [None] before the first handoff — the timeline's leader
    row. *)

val crashes : t -> (int * int) list
(** [(step, pid)] in chronological order (the most recent entries only
    in [retain] mode — {!crash_count} stays exact). *)

val crash_count : t -> int

val retire_count : t -> int
(** Graceful membership leaves ({!Tbwf_sim.Sink.Retire}) observed so far.
    Deliberately not part of the [tbwf-telemetry/v1] snapshot — churn
    aggregates live in the world layer's [tbwf-world/v1] schema. *)

val net_sent : t -> int
(** Messages admitted by the simulated network ({!Tbwf_sim.Sink.Message}
    signals); 0 on shared-memory runs. *)

val net_dropped : t -> int
(** Of {!net_sent}, how many were lost (partition cut or loss draw). *)

val net_latency : t -> Quantile.t
(** Assigned one-way delays of the delivered messages, in steps; the
    snapshot's [net.latency] is its log₂ rendering
    ({!Quantile.log2_json}). *)

(** {2 Output} *)

val schema_version : string

val snapshot : t -> Json.t
(** The full deterministic snapshot (schema {!schema_version}). Latency
    and abort-streak sketches appear as log₂ histograms; the ["custom"]
    object is always empty and kept only because v1 readers expect it. *)

val snapshot_string : t -> string
val pp_summary : Format.formatter -> t -> unit
