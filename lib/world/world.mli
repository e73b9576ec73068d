(** The World layer: many independent cells, open-loop clients, churn.

    Everything below this layer studies one cell — a single
    {!Tbwf_system.System.build} instance with a fixed membership and
    closed-loop clients. A [World] composes [shards] such cells into one
    sharded run: each shard is an independent key-value cell under
    open-loop (Poisson/Zipf) traffic whose membership changes mid-run —
    some processes join late, some leave (gracefully retire, or crash).
    Shards share no state, so the world fans out over a
    {!Tbwf_parallel.Pool} and aggregates telemetry by folding each
    shard's {!Tbwf_telemetry.Collector} into a running merge in shard
    order, which bounds the resident set: memory scales with one shard
    plus one in-flight batch, not with the world's total process count.

    {2 Determinism contract}

    The world's stdout artifact — every shard's JSONL stream in shard
    order, then one [tbwf-world/v1] aggregate record — is a pure
    function of the config: shard [i] derives its seed statelessly as
    {!Tbwf_sim.Rng.task_seed}[ ~master:seed i], churn schedules come
    from a private split of that seed, and the aggregate folds in shard
    order regardless of batching, so output is byte-identical for any
    [--jobs] value and any pool shape. Wall-clock numbers never enter
    the artifact; they belong to stderr and the bench layer.

    {2 The capacity-membership model}

    A cell is built at its {e capacity} [n]: all [n] pids run Ω∆
    heartbeats and monitors from step 0, so a joiner is a dormant but
    timely member whose {e client} activates at its join step (via
    {!Tbwf_sim.Runtime.spawn_at}). Leavers are compiled onto the cell's
    fault timeline as {!Tbwf_nemesis.Fault_plan.Retire} or [Crash]
    atoms, so the plan's timely prediction, compiled policy, and the
    online degradation checker all see the churn the same way. *)

type config = {
  shards : int;  (** independent cells (>= 1) *)
  n : int;  (** processes per cell — the cell's capacity (>= 2) *)
  joiners : int;
      (** pids per cell that join mid-run: the last [joiners] pids
          activate their clients at a drawn step in
          [\[horizon/8, 3*horizon/8)] (>= 0, < [n]) *)
  leavers : int;
      (** initially-active pids per cell that leave mid-run at a drawn
          step in [\[horizon/4, horizon/2)]; at least one initially
          active pid always stays (>= 0) *)
  retire_fraction : float;
      (** probability a leaver retires gracefully rather than crashing
          (in [\[0, 1\]]; drawn per leaver from the churn stream) *)
  horizon : int;  (** steps per shard (>= 8) *)
  every : int option;
      (** per-shard streaming JSONL cadence; [None] streams nothing
          (the aggregate record is still produced) *)
  window : int;  (** telemetry rate-series window *)
  retain : int option;  (** live windows per shard — the memory bound *)
  systems : Tbwf_system.System.id list;
      (** cycled shard-major: shard [i] runs [systems.(i mod length)] *)
  substrate : Tbwf_system.System.substrate;
  profile : Tbwf_core.Workload.Open_loop.profile;
  seed : int64;
}

val default : config
(** 8 shards of 4 processes (1 joiner, 1 leaver, half the leavers
    retiring), 24k steps, no streaming, the paper systems on shared
    memory under a non-saturating open-loop profile (600-step mean
    gaps). Cell size and horizon are coupled — the canonical protocol
    completes about one operation per Ω∆ election cycle rotated across
    the cell — so a bigger [n] needs a proportionally longer
    [horizon] before the verdict's tail floor is meaningful. *)

val validate : config -> unit
(** Raises [Invalid_argument] on a config the model cannot honour. *)

(** One cell's planned membership changes, as drawn from the shard's
    churn stream. Steps are absolute; all fall before the verdict
    tail. *)
type churn = {
  ch_joins : (int * int) list;  (** (pid, join step), pid-ascending *)
  ch_leaves : (int * int * bool) list;
      (** (pid, leave step, retires?) — [false] means the leaver
          crashes *)
}

val churn_schedule : config -> shard:int -> churn
(** The churn shard [shard] will run — exposed so tests and tools can
    predict a shard's membership timeline without running it. *)

val op_of_key : pid:int -> k:int -> key:int -> Tbwf_sim.Value.t
(** A world client's [k]-th operation on its drawn key: a put of its pid
    for even [k], a get for odd [k], on the key-value store's ["k<key>"]. *)

val spawn_clients :
  config ->
  Tbwf_system.System.stack ->
  seed:int64 ->
  joins:(int * int) list ->
  unit
(** A world cell's clients on [stack] (built with [client_pids:[]]): one
    ["open-loop"] {!Tbwf_core.Tbwf.client_machine} (layer [App]) over an
    open-loop source per initially active pid, [0 .. n - joiners - 1],
    from step 0, and one per [(pid, step)] of [joins], activated at that
    step ({!Tbwf_sim.Runtime.spawn_machine_at}). Their arrival clocks
    share one {!Tbwf_core.Workload.Open_loop.traffic} built from
    [profile]; client [p]'s stream is keyed by [(seed, p)] and stops at
    [horizon]. No step of these clients runs a fiber; each takes the steps
    [Workload.Open_loop.spawn_clients ~invoke:stack.invoke] would. *)

type shard_result = {
  ws_shard : int;
  ws_system : Tbwf_system.System.id;
  ws_jsonl : string;  (** the shard's JSONL stream ("" when not streaming) *)
  ws_telemetry : Tbwf_telemetry.Collector.t;
  ws_verdict : Tbwf_check.Degradation.verdict;
  ws_churn : churn;
  ws_completed : int;  (** app operations completed in this shard *)
  ws_seconds : float;  (** wall-clock; never part of the artifact *)
}

val run_shard : config -> shard:int -> shard_result
(** Run one cell to completion through {!Tbwf_nemesis.Cell_runner.run}:
    build the system at capacity [n], spawn open-loop clients for the
    initial members, defer the joiners, and compile the leavers into the
    fault plan; the runner owns the tail boundary, the floor, the
    collector/online-checker tee and the run. *)

type summary = {
  sum_json : Tbwf_telemetry.Json.t;  (** the [tbwf-world/v1] record *)
  sum_all_hold : bool;  (** every shard's online verdict holds *)
  sum_holds : int;
  sum_completed : int;  (** app operations completed, world-wide *)
  sum_steps : int;  (** simulated steps, world-wide *)
}

val run :
  ?pool:Tbwf_parallel.Pool.t ->
  ?on_shard:(shard_result -> unit) ->
  config ->
  summary
(** Run the whole world. Shards fan out over [pool] (sequentially when
    absent) through {!Tbwf_parallel.Pool.fold} and fold into the
    aggregate in shard order — [on_shard] fires in shard order too, once
    per shard, before the shard's collector is folded and dropped. The summary's JSON carries only deterministic
    fields (sim-time rates, tail sketches, churn and verdict tallies);
    wall-clock throughput is the caller's business. *)
