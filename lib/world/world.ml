open Tbwf_sim
open Tbwf_core
open Tbwf_check
open Tbwf_nemesis
open Tbwf_telemetry
module System = Tbwf_system.System

let schema_version = "tbwf-world/v1"

type config = {
  shards : int;
  n : int;
  joiners : int;
  leavers : int;
  retire_fraction : float;
  horizon : int;
  every : int option;
  window : int;
  retain : int option;
  systems : System.id list;
  substrate : System.substrate;
  profile : Workload.Open_loop.profile;
  seed : int64;
}

(* Cell size and horizon are coupled: the canonical Fig-7 protocol
   completes about one operation per Ω∆ election cycle, rotated across
   the cell's candidates, so the per-pid completion rate falls roughly
   as 1/(n * cycle) — a bigger cell needs a proportionally longer
   horizon before the verdict's tail floor is honest. The default is
   small cells, and a mean arrival gap well above the service time:
   a world that saturates every cell turns the QA abort/query recovery
   into a livelock lottery, which is the campaign layer's experiment
   to run deliberately, not the world's default. *)
let default =
  {
    shards = 8;
    n = 4;
    joiners = 1;
    leavers = 1;
    retire_fraction = 0.5;
    horizon = 24_000;
    every = None;
    window = 1024;
    retain = Some 64;
    systems = System.paper_systems;
    substrate = System.Shared_memory;
    profile = { Workload.Open_loop.mean_gap = 600.0; keys = 64; zipf = 1.1 };
    seed = 0x574F_524CL (* "WORL" *);
  }

let validate c =
  let fail fmt = Format.kasprintf invalid_arg ("World: " ^^ fmt) in
  if c.shards < 1 then fail "shards must be positive (got %d)" c.shards;
  Cell_runner.validate ~n:c.n ~horizon:c.horizon ~window:c.window
    ~retain:c.retain;
  if c.joiners < 0 || c.joiners >= c.n then
    fail "joiners must be in [0, n) (got %d of n=%d)" c.joiners c.n;
  (* at least one initially-active pid must stay for the whole run, so
     the cell always has a member the verdict can anchor on *)
  if c.leavers < 0 || c.leavers > c.n - c.joiners - 1 then
    fail "leavers must be in [0, n - joiners - 1] (got %d of n=%d, joiners=%d)"
      c.leavers c.n c.joiners;
  if c.retire_fraction < 0.0 || c.retire_fraction > 1.0 then
    fail "retire_fraction must be in [0, 1] (got %g)" c.retire_fraction;
  if c.horizon < 8 then fail "horizon must be at least 8 (got %d)" c.horizon;
  (match c.every with
  | Some e when e < 1 -> fail "every must be positive (got %d)" e
  | _ -> ());
  if c.systems = [] then fail "systems must be non-empty";
  Workload.Open_loop.validate c.profile

let shard_system c ~shard =
  let systems = Array.of_list c.systems in
  systems.(shard mod Array.length systems)

type churn = {
  ch_joins : (int * int) list;
  ch_leaves : (int * int * bool) list;
}

(* The churn stream is a private split of the shard seed: the cell's own
   rng (scheduling) and object rng must not move when the churn knobs
   do, or a churn-free world would not be comparable to a churned one at
   the same seed. *)
let churn_stream_salt = 0x6368_7572_6e21L (* "churn!" *)

let churn_schedule c ~shard =
  let shard_seed = Rng.task_seed ~master:c.seed shard in
  let rng = Rng.create (Int64.logxor shard_seed churn_stream_salt) in
  let h = c.horizon in
  (* joiners are the top pids: capacity-membership keeps the initially
     active prefix dense, which keeps the per-pid arrays readable *)
  let joins =
    List.init c.joiners (fun i ->
        c.n - c.joiners + i, (h / 8) + Rng.int rng (max 1 (h / 4)))
  in
  (* leavers come from the initially-active pids, except pid 0: the
     shuffle picks which ones, the draw order fixes when. Keeping pid 0
     is the validated "at least one stable member" anchor. *)
  let eligible = Array.init (c.n - c.joiners - 1) (fun i -> i + 1) in
  Rng.shuffle rng eligible;
  (* the leave window ends at h/2: a crash just before the verdict tail
     would charge the re-election turbulence to the tail, which is the
     campaign layer's experiment, not the world's *)
  let leaves =
    List.init c.leavers (fun i ->
        ( eligible.(i),
          (h / 4) + Rng.int rng (max 1 (h / 4)),
          Rng.bool rng c.retire_fraction ))
  in
  { ch_joins = joins; ch_leaves = leaves }

(* Leaves become fault atoms, so prediction, policy and installation all
   run through the one nemesis pipeline; joins are not faults and stay a
   runtime affair ({!Runtime.spawn_at}). *)
let plan_of c ~churn =
  let replicas =
    match c.substrate with
    | System.Shared_memory -> 0
    | System.Message_passing config -> config.Tbwf_net.Net.replicas
  in
  let atoms =
    List.map
      (fun (pid, at, retires) ->
        if retires then Fault_plan.Retire { pid; at }
        else Fault_plan.Crash { pid; at })
      churn.ch_leaves
  in
  Fault_plan.make ~replicas ~n:c.n ~horizon:c.horizon atoms

(* Alternating writes and reads over the drawn Zipf key: every pid
   exercises both paths, and the hot keys contend across the cell. *)
let op_of_key ~pid ~k ~key =
  let name = "k" ^ string_of_int key in
  if k land 1 = 0 then Tbwf_objects.Kv_store.put name (Value.Int pid)
  else Tbwf_objects.Kv_store.get name

type shard_result = {
  ws_shard : int;
  ws_system : System.id;
  ws_jsonl : string;
  ws_telemetry : Collector.t;
  ws_verdict : Degradation.verdict;
  ws_churn : churn;
  ws_completed : int;
  ws_seconds : float;
}

let run_shard c ~shard =
  let start = Unix.gettimeofday () in
  let system = shard_system c ~shard in
  let shard_seed = Rng.task_seed ~master:c.seed shard in
  let churn = churn_schedule c ~shard in
  (* Initially-active members drive open-loop traffic from step 0; each
     joiner's client is the same body deferred to its join step. The Ω∆
     mesh installed by [build] covers all [n] pids either way — a joiner
     is a dormant but timely member until its client wakes. *)
  let build ~qa_policy ~mesh_policy =
    let stack =
      System.build ~substrate:c.substrate ~seed:shard_seed
        ~record_trace:false ~qa_policy ~mesh_policy
        ~spec:Tbwf_objects.Kv_store.spec ~client_pids:[] ~telemetry:true
        ~telemetry_window:c.window ?telemetry_retain:c.retain ~n:c.n system
    in
    let { System.rt; stats; invoke; _ } = stack in
    Workload.Open_loop.spawn_clients rt
      ~pids:(List.init (c.n - c.joiners) Fun.id)
      ~stats ~invoke ~profile:c.profile ~seed:shard_seed ~until:c.horizon
      ~op_of_key;
    List.iter
      (fun (pid, at) ->
        Runtime.spawn_at ~layer:Sink.App rt ~pid ~at ~name:"open-loop"
          (Workload.Open_loop.client_body rt ~pid ~stats ~invoke
             ~profile:c.profile ~seed:shard_seed ~until:c.horizon ~op_of_key))
      churn.ch_joins;
    stack
  in
  let buf = Buffer.create 256 in
  let fields verdict =
    [
      "shard", Json.Int shard;
      "system", Json.Str (System.to_string system);
      "verdict", verdict;
    ]
  in
  let emit r = Buffer.add_string buf (Json.to_string r ^ "\n") in
  let stream =
    Option.map
      (fun every -> { Cell_runner.every; monitor = None; fields; emit })
      c.every
  in
  let cell = Cell_runner.run ~plan:(plan_of c ~churn) ~build ~stream in
  let telemetry = cell.Cell_runner.cr_telemetry in
  {
    ws_shard = shard;
    ws_system = system;
    ws_jsonl = Buffer.contents buf;
    ws_telemetry = telemetry;
    ws_verdict = cell.Cell_runner.cr_verdict;
    ws_churn = churn;
    ws_completed =
      Array.fold_left ( + ) 0 (Collector.app_completed telemetry);
    ws_seconds = Unix.gettimeofday () -. start;
  }

type summary = {
  sum_json : Json.t;
  sum_all_hold : bool;
  sum_holds : int;
  sum_completed : int;
  sum_steps : int;
}

(* Per-system tallies small enough to keep for the whole world; the
   collectors themselves fold into one running merge and are dropped. *)
type per_system = {
  mutable py_shards : int;
  mutable py_completed : int;
  mutable py_holds : int;
}

type agg = {
  mutable merged : Collector.t option;
  epoch_sketch : Quantile.t;  (* per-shard leader-epoch churn *)
  by_system : (System.id * per_system) list;
  mutable holds : int;
  mutable joins : int;
  mutable planned_retires : int;
  mutable planned_crashes : int;
}

let fold_shard agg r =
  agg.merged <-
    (match agg.merged with
    | None -> Some r.ws_telemetry
    | Some m -> Some (Collector.merge m r.ws_telemetry));
  Quantile.observe agg.epoch_sketch (Collector.leader_epochs r.ws_telemetry);
  let py = List.assoc r.ws_system agg.by_system in
  py.py_shards <- py.py_shards + 1;
  py.py_completed <- py.py_completed + r.ws_completed;
  if r.ws_verdict.Degradation.holds then begin
    py.py_holds <- py.py_holds + 1;
    agg.holds <- agg.holds + 1
  end;
  agg.joins <- agg.joins + List.length r.ws_churn.ch_joins;
  List.iter
    (fun (_, _, retires) ->
      if retires then agg.planned_retires <- agg.planned_retires + 1
      else agg.planned_crashes <- agg.planned_crashes + 1)
    r.ws_churn.ch_leaves

let summary_json c agg =
  let merged = Option.get agg.merged (* shards >= 1 is validated *) in
  let total_steps = Collector.total_steps merged in
  let completed = Array.fold_left ( + ) 0 (Collector.app_completed merged) in
  (* A sim-time rate: ops per 100k simulated steps. Wall-clock ops/sec
     would poison the artifact's determinism; it goes to stderr. *)
  let per_100k =
    if total_steps = 0 then 0 else completed * 100_000 / total_steps
  in
  let systems =
    List.filter_map
      (fun (sys, py) ->
        if py.py_shards = 0 then None
        else
          Some
            (Json.Obj
               [
                 "system", Json.Str (System.to_string sys);
                 "shards", Json.Int py.py_shards;
                 "completed", Json.Int py.py_completed;
                 "verdict_holds", Json.Int py.py_holds;
               ]))
      agg.by_system
  in
  Json.Obj
    [
      "schema", Json.Str schema_version;
      "shards", Json.Int c.shards;
      "n", Json.Int c.n;
      "total_processes", Json.Int (c.shards * c.n);
      "horizon_per_shard", Json.Int c.horizon;
      ( "profile",
        Json.Obj
          [
            "mean_gap", Json.Float c.profile.Workload.Open_loop.mean_gap;
            "keys", Json.Int c.profile.Workload.Open_loop.keys;
            "zipf", Json.Float c.profile.Workload.Open_loop.zipf;
          ] );
      ( "steps",
        Json.Obj
          [
            "total", Json.Int total_steps;
            "idle", Json.Int (Collector.idle_steps merged);
          ] );
      ( "ops",
        Json.Obj
          [
            "completed", Json.Int completed;
            "per_100k_steps", Json.Int per_100k;
          ] );
      ( "app_tail",
        Quantile.summary_json (Span.tail_of (Collector.spans merged) Sink.App) );
      ( "leader_epochs",
        Json.Obj
          [
            "total", Json.Int (Collector.leader_epochs merged);
            "per_shard", Quantile.summary_json agg.epoch_sketch;
          ] );
      ( "churn",
        Json.Obj
          [
            "joins", Json.Int agg.joins;
            "planned_retires", Json.Int agg.planned_retires;
            "planned_crashes", Json.Int agg.planned_crashes;
            "observed_retires", Json.Int (Collector.retire_count merged);
            "observed_crashes", Json.Int (Collector.crash_count merged);
          ] );
      "systems", Json.Arr systems;
      "verdict_holds", Json.Int agg.holds;
      "all_hold", Json.Bool (agg.holds = c.shards);
    ]

let run ?pool ?(on_shard = fun _ -> ()) c =
  validate c;
  let agg =
    {
      merged = None;
      epoch_sketch = Quantile.create ();
      by_system = List.map (fun sys -> sys, { py_shards = 0; py_completed = 0; py_holds = 0 }) c.systems;
      holds = 0;
      joins = 0;
      planned_retires = 0;
      planned_crashes = 0;
    }
  in
  (* Shards fold into the aggregate in shard order, a batch at a time
     ({!Tbwf_parallel.Pool.fold}): only one batch of collectors is ever
     live, whatever the shard count. *)
  let pool =
    Option.value pool ~default:(Tbwf_parallel.Pool.create ~domains:1 ())
  in
  Tbwf_parallel.Pool.fold pool ~tasks:c.shards
    (fun shard -> run_shard c ~shard)
    ~init:()
    (fun () r ->
      on_shard r;
      fold_shard agg r);
  let merged = Option.get agg.merged in
  {
    sum_json = summary_json c agg;
    sum_all_hold = agg.holds = c.shards;
    sum_holds = agg.holds;
    sum_completed = Array.fold_left ( + ) 0 (Collector.app_completed merged);
    sum_steps = Collector.total_steps merged;
  }
