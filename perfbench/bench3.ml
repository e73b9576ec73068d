(* tbwf-bench/v3 workload runner.

   [bench3 run --workload W --seed S --jobs J [--setup]] runs one
   workload once. Stdout is the workload's deterministic artifact: a
   pure function of (workload, seed, size), byte-identical at any --jobs.
   Its last line is a [tbwf-bench/v3] summary record the harness reads
   the exact metrics from. The last stderr line is a JSON object with
   the host measurements (wall seconds, VmHWM, domains). [--setup] runs
   the same entry point with one cell at the minimum horizon.

   [bench3 trace --workload W --seed S --jobs J --spans-out FILE] is the
   per-layer pass. It times the stack layers one at a time, splits the
   sink layers on the workload's own cells, runs the workload untraced,
   traced and at one domain, and prints the one-domain artifact on
   stdout. The last stderr line carries the per-layer metrics. Spans are
   recorded around the public calls into each layer, kept in memory and
   written to FILE at the end.

   run.py in this directory drives both and checks the artifacts. *)

open Tbwf_sim
open Tbwf_check
open Tbwf_nemesis
open Tbwf_telemetry
module System = Tbwf_system.System
module World = Tbwf_world.World
module Pool = Tbwf_parallel.Pool

let clock_ns () = Int64.to_float (Monotonic_clock.now ())

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

(* --- spans ---------------------------------------------------------------- *)

(* Spans around calls into the library's public functions. Recording is
   off unless [enabled]; spans live in memory until [write]. Each domain
   tracks its own current span, and pool tasks adopt the span of the
   [Pool.map] that launched them as their parent. *)
module Spans = struct
  type t = {
    id : int;
    parent : int;
    name : string;
    domain : int;
    t0 : float;  (** ns *)
    t1 : float;
  }

  let enabled = ref false
  let lock = Mutex.create ()
  let recorded : t list ref = ref []
  let next_id = Atomic.make 1
  let current = Domain.DLS.new_key (fun () -> 0)
  let current_id () = Domain.DLS.get current

  let with_ name f =
    if not !enabled then f ()
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let parent = Domain.DLS.get current in
      Domain.DLS.set current id;
      let t0 = clock_ns () in
      Fun.protect
        ~finally:(fun () ->
          let t1 = clock_ns () in
          Domain.DLS.set current parent;
          let span =
            { id; parent; name; domain = (Domain.self () :> int); t0; t1 }
          in
          Mutex.protect lock (fun () -> recorded := span :: !recorded))
        f
    end

  let under parent f =
    if not !enabled then f ()
    else begin
      let saved = Domain.DLS.get current in
      Domain.DLS.set current parent;
      Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f
    end

  let durations_s name =
    List.filter_map
      (fun s -> if s.name = name then Some ((s.t1 -. s.t0) /. 1e9) else None)
      !recorded

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  "id", Json.Int s.id;
                  "parent", Json.Int s.parent;
                  "name", Json.Str s.name;
                  "domain", Json.Int s.domain;
                  "start_ns", Json.Float s.t0;
                  "end_ns", Json.Float s.t1;
                ]));
        output_char oc '\n')
      (List.sort (fun a b -> compare a.id b.id) !recorded);
    close_out oc
end

let pool_map pool xs f =
  Spans.with_ "Pool.map" (fun () ->
      let parent = Spans.current_id () in
      let task x = Spans.under parent (fun () -> f x) in
      match pool with
      | Some p when Pool.domains p > 1 -> Pool.map p xs task
      | _ -> Array.map task xs)

let merge_into acc c =
  match acc with
  | None -> Some c
  | Some m -> Some (Spans.with_ "Collector.merge" (fun () -> Collector.merge m c))

(* --- one cell, with the sink layers enabled one at a time ---------------- *)

(* Sink layers in the order the traced pass enables them: the nil sink,
   the telemetry collector, the online degradation checker with the tail
   monitor, and the v2 JSONL stream. *)
type level = Nil | Collector_only | Checked | Streamed

let levels = [ Nil; Collector_only; Checked; Streamed ]

type cell = {
  label : string;
  n : int;
  horizon : int;
  every : int;  (** stream cadence *)
  expect_fail : bool;
  build : telemetry:bool -> System.stack;
  prepare : System.stack -> unit;  (** clients and crashes *)
  plan : Fault_plan.t;
  min_ops : int;
}

type cell_result = {
  cr_jsonl : string;
  cr_telemetry : Collector.t option;
  cr_verdict : Degradation.verdict option;
  cr_steps : int;
  cr_completed : int;
  cr_run_ns : float;  (** Runtime.run plus stream flush *)
  cr_run_words : float;
}

let prediction cell =
  let snap =
    max (Fault_plan.settle_step cell.plan) (cell.horizon - (cell.horizon / 4))
  in
  { (Fault_plan.prediction cell.plan) with Degradation.pred_from = snap }

let run_cell ?(extra = fun ~online:_ ~monitor:_ -> []) ~level cell =
  let stack =
    Spans.with_ "System.build" (fun () -> cell.build ~telemetry:(level <> Nil))
  in
  let rt = stack.System.rt in
  cell.prepare stack;
  let online = Degradation.Online.create ~min_ops:cell.min_ops (prediction cell) in
  let monitor = Tail_monitor.create ~n:cell.n ~window:cell.every () in
  let buf = Buffer.create 4096 in
  (match level, stack.System.telemetry with
  | Nil, _ | Collector_only, _ -> ()
  | (Checked | Streamed), Some c ->
    (* tbwf_soak's tee order: the monitor has closed exactly the
       record's window, the collector emits, the checker has consumed
       exactly the covered steps *)
    Runtime.set_sink rt
      (Sink.tee (Tail_monitor.sink monitor)
         (Sink.tee (Collector.sink c) (Degradation.Online.sink online)));
    if level = Streamed then
      Collector.emit_every c ~every:cell.every
        ~extra:(fun ~window:_ -> extra ~online ~monitor)
        (fun record ->
          Buffer.add_string buf (Json.to_string record);
          Buffer.add_char buf '\n')
  | (Checked | Streamed), None -> invalid_arg "run_cell: no collector");
  let w0 = Gc.minor_words () in
  let t0 = clock_ns () in
  Spans.with_ "Runtime.run" (fun () ->
      Runtime.run rt ~policy:(Fault_plan.policy cell.plan) ~steps:cell.horizon);
  (match level, stack.System.telemetry with
  | Streamed, Some c -> Collector.stream_flush c
  | _ -> ());
  let t1 = clock_ns () in
  let w1 = Gc.minor_words () in
  let steps = Runtime.now rt in
  Runtime.stop rt;
  {
    cr_jsonl = Buffer.contents buf;
    cr_telemetry = stack.System.telemetry;
    cr_verdict =
      (match level with
      | Checked | Streamed -> Some (Degradation.Online.verdict online)
      | Nil | Collector_only -> None);
    cr_steps = steps;
    cr_completed = Array.fold_left ( + ) 0 stack.System.stats.Tbwf_core.Workload.completed;
    cr_run_ns = t1 -. t0;
    cr_run_words = w1 -. w0;
  }

(* --- workloads ------------------------------------------------------------ *)

type workload = World_open_loop | Soak_closed_loop | Mp_matrix

let workload_of_string = function
  | "world_open_loop" -> Some World_open_loop
  | "soak_closed_loop" -> Some Soak_closed_loop
  | "mp_matrix" -> Some Mp_matrix
  | _ -> None

let workload_name = function
  | World_open_loop -> "world_open_loop"
  | Soak_closed_loop -> "soak_closed_loop"
  | Mp_matrix -> "mp_matrix"

(* The span that covers one cell of each workload. *)
let cell_span = function
  | World_open_loop -> "World.run_shard"
  | Soak_closed_loop -> "soak.shard"
  | Mp_matrix -> "Campaign.run_plan"

type outcome = {
  artifact : string;
  cells : int;
  as_predicted : int;
  steps : int;
  completed : int;
  merged : Collector.t option;  (** all cells folded in cell order *)
}

let quantile_json q =
  Json.Obj
    [
      "count", Json.Int (Quantile.count q);
      "p50", Json.Int (Quantile.p50 q);
      "p99", Json.Int (Quantile.p99 q);
      "p999", Json.Int (Quantile.p999 q);
      "max", Json.Int (Quantile.max_value q);
    ]

(* Append the artifact's last line: the exact numbers the harness
   reports. *)
let with_summary workload o ~p50 ~p99 =
  let line =
    Json.to_string
      (Json.Obj
         [
           "schema", Json.Str "tbwf-bench/v3";
           "workload", Json.Str (workload_name workload);
           "cells", Json.Int o.cells;
           "as_predicted", Json.Int o.as_predicted;
           "steps", Json.Int o.steps;
           "completed", Json.Int o.completed;
           "op_p50_steps", Json.Int p50;
           "op_p99_steps", Json.Int p99;
         ])
  in
  { o with artifact = o.artifact ^ line ^ "\n" }

let app_tail c = Span.tail_of (Collector.spans c) Sink.App

(* world_open_loop: cells shaped like the 1,048,576-process headline run
   (n=4, 8000 steps, mean gap 300, one joiner, one leaver, the paper
   systems on shared memory), fewer of them. *)
let world_config ~seed ~setup =
  {
    World.default with
    World.shards = (if setup then 1 else 512);
    horizon = (if setup then 8 else 8_000);
    profile = { Tbwf_core.Workload.Open_loop.mean_gap = 300.0; keys = 64; zipf = 1.1 };
    seed = Int64.of_int seed;
  }

let world_run ?pool c =
  let s = World.run ?pool c in
  let tail name =
    match Json.member "app_tail" s.World.sum_json with
    | Some t -> (
      match Json.member name t with Some (Json.Int v) -> v | _ -> -1)
    | None -> -1
  in
  with_summary World_open_loop
    {
      artifact = Json.to_string s.World.sum_json ^ "\n";
      cells = c.World.shards;
      as_predicted = s.World.sum_holds;
      steps = s.World.sum_steps;
      completed = s.World.sum_completed;
      merged = None;
    }
    ~p50:(tail "p50") ~p99:(tail "p99")

(* The traced form of [World.run]: the same shards in the same fixed
   batches of 32, each shard and each fold spanned from outside. Its
   counts must equal the untraced run's. *)
let world_traced ?pool c =
  let merged = ref None and holds = ref 0 and completed = ref 0 in
  let rec go from =
    if from < c.World.shards then begin
      let count = min 32 (c.World.shards - from) in
      let results =
        pool_map pool (Array.init count (fun i -> from + i)) (fun shard ->
            Spans.with_ "World.run_shard" (fun () -> World.run_shard c ~shard))
      in
      Array.iter
        (fun r ->
          merged := merge_into !merged r.World.ws_telemetry;
          if r.World.ws_verdict.Degradation.holds then incr holds;
          completed := !completed + r.World.ws_completed)
        results;
      go (from + count)
    end
  in
  go 0;
  let m = Option.get !merged in
  {
    artifact = "";
    cells = c.World.shards;
    as_predicted = !holds;
    steps = Collector.total_steps m;
    completed = !completed;
    merged = Some m;
  }

(* A world shard as a ladder cell: World.run_shard's wiring, with the
   sink layers chosen by the caller. *)
let world_cell (c : World.config) ~shard =
  let systems = Array.of_list c.World.systems in
  let system = systems.(shard mod Array.length systems) in
  let seed = Rng.task_seed ~master:c.World.seed shard in
  let churn = World.churn_schedule c ~shard in
  let plan =
    Fault_plan.make ~n:c.World.n ~horizon:c.World.horizon
      (List.map
         (fun (pid, at, retires) ->
           if retires then Fault_plan.Retire { pid; at }
           else Fault_plan.Crash { pid; at })
         churn.World.ch_leaves)
  in
  let op_of_key ~pid ~k ~key =
    let name = "k" ^ string_of_int key in
    if k land 1 = 0 then Tbwf_objects.Kv_store.put name (Value.Int pid)
    else Tbwf_objects.Kv_store.get name
  in
  let prepare (stack : System.stack) =
    let rt = stack.System.rt in
    let client pid =
      Tbwf_core.Workload.Open_loop.client_body rt ~pid ~stats:stack.System.stats
        ~invoke:stack.System.invoke ~profile:c.World.profile ~seed
        ~until:c.World.horizon ~op_of_key
    in
    Tbwf_core.Workload.Open_loop.spawn_clients rt
      ~pids:(List.init (c.World.n - c.World.joiners) Fun.id)
      ~stats:stack.System.stats ~invoke:stack.System.invoke
      ~profile:c.World.profile ~seed ~until:c.World.horizon ~op_of_key;
    List.iter
      (fun (pid, at) ->
        Runtime.spawn_at ~layer:Sink.App rt ~pid ~at ~name:"open-loop" (client pid))
      churn.World.ch_joins;
    Fault_plan.install_crashes plan rt
  in
  let h = c.World.horizon in
  let snap = max (Fault_plan.settle_step plan) (h - (h / 4)) in
  {
    label = System.to_string system;
    n = c.World.n;
    horizon = h;
    every = max 1 (h / 8);
    expect_fail = false;
    build =
      (fun ~telemetry ->
        System.build ~substrate:c.World.substrate ~seed ~record_trace:false
          ~spec:Tbwf_objects.Kv_store.spec ~client_pids:[] ~telemetry
          ~telemetry_window:c.World.window ?telemetry_retain:c.World.retain
          ~n:c.World.n system);
    prepare;
    plan;
    min_ops = Campaign.required_tail_ops ~n:c.World.n ~tail:(h - snap);
  }

(* soak_closed_loop: tbwf_soak's default shape (n=4, shard i runs system
   i mod 5 under catalogue campaign (i/5) mod 6, one v2 record every
   steps/8), 30 shards so every (system, campaign) cell runs once. *)
let soak_shards ~setup = if setup then 1 else 30
let soak_horizon ~setup = if setup then 8 else 200_000

let soak_cell ~horizon ~master_seed ~shard =
  let systems = Array.of_list Campaign.all_systems in
  let catalogue = Array.of_list Campaign.catalogue in
  let system = systems.(shard mod Array.length systems) in
  let campaign =
    catalogue.(shard / Array.length systems mod Array.length catalogue)
  in
  let n = 4 in
  let plan = Campaign.plan campaign ~n ~horizon in
  let seed = Rng.task_seed ~master:master_seed shard in
  let policy target =
    Fault_plan.abort_policy plan ~target ~base:Tbwf_registers.Abort_policy.Always
  in
  let snap = max (Fault_plan.settle_step plan) (horizon - (horizon / 4)) in
  ( system,
    campaign,
    {
      label = Campaign.system_name system ^ "/" ^ Campaign.name campaign;
      n;
      horizon;
      every = max 1 (horizon / 8);
      expect_fail = List.mem system (Campaign.expect_fail campaign);
      build =
        (fun ~telemetry ->
          System.build ~seed ~record_trace:false ~qa_policy:(policy Fault_plan.Qa)
            ~mesh_policy:(policy Fault_plan.Omega_mesh) ~telemetry
            ~telemetry_window:1024 ~telemetry_retain:64 ~n system);
      prepare = (fun stack -> Fault_plan.install_crashes plan stack.System.rt);
      plan;
      min_ops = Campaign.required_tail_ops ~n ~tail:(horizon - snap);
    } )

let soak_run ?pool ~seed ~setup () =
  let horizon = soak_horizon ~setup in
  let master_seed = Int64.of_int seed in
  let results =
    pool_map pool (Array.init (soak_shards ~setup) Fun.id) (fun shard ->
        Spans.with_ "soak.shard" (fun () ->
            let system, campaign, cell = soak_cell ~horizon ~master_seed ~shard in
            let extra ~online ~monitor =
              [
                "shard", Json.Int shard;
                "system", Json.Str (Campaign.system_name system);
                "campaign", Json.Str (Campaign.name campaign);
                ( "verdict",
                  Degradation.verdict_json (Degradation.Online.verdict online) );
                "tail_monitor", Tail_monitor.to_json monitor;
              ]
            in
            cell, run_cell ~extra ~level:Streamed cell))
  in
  let buf = Buffer.create 65536 in
  let merged = ref None and matched = ref 0 in
  let rows =
    Array.to_list
      (Array.map
         (fun (cell, r) ->
           Buffer.add_string buf r.cr_jsonl;
           let c = Option.get r.cr_telemetry in
           merged := merge_into !merged c;
           let holds = (Option.get r.cr_verdict).Degradation.holds in
           if holds = not cell.expect_fail then incr matched;
           Json.Obj
             [
               "cell", Json.Str cell.label;
               "holds", Json.Bool holds;
               "as_expected", Json.Bool (holds = not cell.expect_fail);
               "steps", Json.Int r.cr_steps;
               "completed", Json.Int r.cr_completed;
             ])
         results)
  in
  let m = Option.get !merged in
  let completed = Array.fold_left ( + ) 0 (Collector.app_completed m) in
  let tail = app_tail m in
  Buffer.add_string buf
    (Json.to_string
       (Json.Obj
          [
            "schema", Json.Str "tbwf-bench/v3-soak";
            "shards", Json.Int (Array.length results);
            "horizon_per_shard", Json.Int horizon;
            "total_steps", Json.Int (Collector.total_steps m);
            "completed", Json.Int completed;
            "app_tail", quantile_json tail;
            "leader_epochs", Json.Int (Collector.leader_epochs m);
            "cells", Json.Arr rows;
          ]));
  Buffer.add_char buf '\n';
  with_summary Soak_closed_loop
    {
      artifact = Buffer.contents buf;
      cells = Array.length results;
      as_predicted = !matched;
      steps = Collector.total_steps m;
      completed;
      merged = Some m;
    }
    ~p50:(Quantile.p50 tail) ~p99:(Quantile.p99 tail)

(* mp_matrix: E17's message-passing matrix at quick size, one system per
   campaign: the 6 stock and 6 network campaigns, campaign i on system
   i mod 5, so every campaign and every system runs. The full 60-cell
   matrix takes about 30 s at 2 domains. *)
let mp_substrate = System.Message_passing Tbwf_net.Net.default_config

let mp_cells ~horizon ~count =
  let n, _ = Campaign.substrate_dimensions ~substrate:mp_substrate ~quick:true () in
  let systems = Array.of_list Campaign.all_systems in
  List.filteri
    (fun i _ -> i < count)
    (List.mapi
       (fun i c -> c, Campaign.plan c ~n ~horizon, systems.(i mod Array.length systems))
       (Campaign.catalogue @ Campaign.net_catalogue))

let mp_horizon ~setup =
  if setup then 64
  else snd (Campaign.substrate_dimensions ~substrate:mp_substrate ~quick:true ())

let mp_run ?pool ~seed ~setup () =
  let cells = Array.of_list (mp_cells ~horizon:(mp_horizon ~setup) ~count:(if setup then 1 else 12)) in
  let results =
    pool_map pool cells (fun (_, plan, system) ->
        Spans.with_ "Campaign.run_plan" (fun () ->
            Campaign.run_plan ~substrate:mp_substrate ~seed:(Int64.of_int seed)
              ~plan ~system ()))
  in
  let buf = Buffer.create 4096 in
  let merged = ref None and matched = ref 0 in
  Array.iteri
    (fun i r ->
      let campaign, _, system = cells.(i) in
      let holds = r.Campaign.rr_verdict.Degradation.holds in
      let expect_fail = List.mem system (Campaign.expect_fail campaign) in
      if holds = not expect_fail then incr matched;
      merged := merge_into !merged r.Campaign.rr_telemetry;
      Buffer.add_string buf
        (Json.to_string
           (Json.Obj
              [
                "campaign", Json.Str (Campaign.name campaign);
                "system", Json.Str (Campaign.system_name system);
                "holds", Json.Bool holds;
                "as_expected", Json.Bool (holds = not expect_fail);
                "steps", Json.Int (Collector.total_steps r.Campaign.rr_telemetry);
                ( "completed",
                  Json.Int
                    (Array.fold_left ( + ) 0
                       (Collector.app_completed r.Campaign.rr_telemetry)) );
                ( "tail_ops",
                  Json.Arr
                    (Array.to_list
                       (Array.map (fun k -> Json.Int k) r.Campaign.rr_tail_ops)) );
              ]));
      Buffer.add_char buf '\n')
    results;
  let m = Option.get !merged in
  Buffer.add_string buf (Collector.snapshot_string m);
  Buffer.add_char buf '\n';
  let tail = app_tail m in
  with_summary Mp_matrix
    {
      artifact = Buffer.contents buf;
      cells = Array.length cells;
      as_predicted = !matched;
      steps = Collector.total_steps m;
      completed = Array.fold_left ( + ) 0 (Collector.app_completed m);
      merged = Some m;
    }
    ~p50:(Quantile.p50 tail) ~p99:(Quantile.p99 tail)

let run_workload ?pool ~seed ~setup = function
  | World_open_loop -> world_run ?pool (world_config ~seed ~setup)
  | Soak_closed_loop -> soak_run ?pool ~seed ~setup ()
  | Mp_matrix -> mp_run ?pool ~seed ~setup ()

let make_pool domains =
  if domains > 1 then Some (Pool.create ~domains ()) else None

(* --- microlayers ----------------------------------------------------------- *)

let micro_reps = 5

type micro = {
  ns_per_step : float;
  ns_range : float * float;  (** min and max over the repetitions *)
  words_per_step : float;
  ns_per_op : float;
}

(* [scenario ()] builds a fresh runtime and returns (rt, ops): the timed
   part is [Runtime.run] alone. Time is the median over [micro_reps]
   fresh builds; minor words repeat exactly, so one sample suffices. *)
let micro ~steps scenario =
  let samples =
    List.init micro_reps (fun _ ->
        let rt, ops = scenario () in
        let w0 = Gc.minor_words () in
        let t0 = clock_ns () in
        Runtime.run rt ~policy:(Policy.round_robin ()) ~steps;
        let t1 = clock_ns () in
        let w1 = Gc.minor_words () in
        let s = float_of_int (Runtime.now rt) in
        let k = float_of_int (ops ()) in
        Runtime.stop rt;
        (t1 -. t0) /. s, (w1 -. w0) /. s, (if k > 0.0 then (t1 -. t0) /. k else nan))
  in
  let ns = List.map (fun (a, _, _) -> a) samples in
  let _, words, _ = List.hd samples in
  {
    ns_per_step = median ns;
    ns_range = List.fold_left min infinity ns, List.fold_left max neg_infinity ns;
    words_per_step = words;
    ns_per_op = median (List.map (fun (_, _, c) -> c) samples);
  }

let spinners seed =
  let rt = Runtime.create ~seed ~n:4 () in
  for pid = 0 to 3 do
    Runtime.spawn rt ~pid ~name:"spin" (fun () ->
        while true do
          Runtime.yield ()
        done)
  done;
  rt, fun () -> 0

let atomic_rw seed =
  let open Tbwf_registers in
  let rt = Runtime.create ~seed ~n:4 () in
  let reg = Atomic_reg.create rt ~name:"r" ~codec:Codec.int ~init:0 in
  for pid = 0 to 3 do
    Runtime.spawn rt ~pid ~name:"rw" (fun () ->
        while true do
          Atomic_reg.write reg (Atomic_reg.read reg + 1)
        done)
  done;
  rt, fun () -> 0

let abortable_rw seed =
  let open Tbwf_registers in
  let rt = Runtime.create ~seed ~n:2 () in
  let reg =
    Abortable_reg.create rt ~name:"r" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Always ()
  in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      let k = ref 0 in
      while true do
        incr k;
        ignore (Abortable_reg.write reg !k : bool)
      done);
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      while true do
        ignore (Abortable_reg.read reg : int option)
      done);
  rt, fun () -> 0

(* Four processes applying increments to a query-abortable counter, each
   followed by a query; counts invokes and aborted calls. *)
let qa_counter ~invokes ~aborts seed =
  let rt = Runtime.create ~seed ~n:4 () in
  let qa =
    Tbwf_objects.Qa_object.create rt ~name:"qa" ~spec:Tbwf_objects.Counter.spec
      ~policy:Tbwf_registers.Abort_policy.Always ()
  in
  invokes := 0;
  aborts := 0;
  let count v = if v = Value.Abort then incr aborts in
  for pid = 0 to 3 do
    Runtime.spawn rt ~pid ~name:"apply" (fun () ->
        while true do
          incr invokes;
          count (qa.Tbwf_objects.Qa_intf.invoke Tbwf_objects.Counter.inc);
          count (qa.Tbwf_objects.Qa_intf.query ())
        done)
  done;
  rt, fun () -> !invokes

let full_stack ?backend ?substrate ?(telemetry = false) seed =
  let stack = System.build ?backend ?substrate ~seed ~telemetry ~n:4 System.Tbwf_atomic in
  ( stack,
    ( stack.System.rt,
      fun () -> Array.fold_left ( + ) 0 stack.System.stats.Tbwf_core.Workload.completed ) )

let microlayers ~seed =
  let seed = Int64.of_int seed in
  let yield = micro ~steps:1_000_000 (fun () -> spinners seed) in
  let atomic = micro ~steps:400_000 (fun () -> atomic_rw seed) in
  let abortable = micro ~steps:400_000 (fun () -> abortable_rw seed) in
  let invokes = ref 0 and aborts = ref 0 in
  let qa = micro ~steps:400_000 (fun () -> qa_counter ~invokes ~aborts seed) in
  let qa_aborts_per_op = float_of_int !aborts /. float_of_int (max 1 !invokes) in
  let core = micro ~steps:200_000 (fun () -> snd (full_stack seed)) in
  let compiled =
    micro ~steps:200_000 (fun () -> snd (full_stack ~backend:Backend.Compiled seed))
  in
  let net = micro ~steps:100_000 (fun () -> snd (full_stack ~substrate:mp_substrate seed)) in
  (* message counts come from a collector, so one more run with it on *)
  let stack, (rt, ops) = full_stack ~substrate:mp_substrate ~telemetry:true seed in
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100_000;
  let c = Option.get stack.System.telemetry in
  let net_counts = Collector.net_sent c, Collector.net_dropped c, ops () in
  Runtime.stop rt;
  ( [
      "sim.yield.ns_per_step", yield.ns_per_step;
      "sim.yield.words_per_step", yield.words_per_step;
      "registers.atomic.ns_per_step", atomic.ns_per_step;
      "registers.atomic.words_per_step", atomic.words_per_step;
      "registers.abortable.ns_per_step", abortable.ns_per_step;
      "registers.abortable.words_per_step", abortable.words_per_step;
      "objects.qa.ns_per_step", qa.ns_per_step;
      "objects.qa.words_per_step", qa.words_per_step;
      "objects.qa.aborts_per_op", qa_aborts_per_op;
      "core.tbwf.ns_per_step", core.ns_per_step;
      "core.tbwf.ns_per_op", core.ns_per_op;
      "core.tbwf.words_per_step", core.words_per_step;
      "compiled.tbwf.ns_per_step", compiled.ns_per_step;
      "compiled.tbwf.words_per_step", compiled.words_per_step;
      "compiled.ref_over_compiled", core.ns_per_step /. compiled.ns_per_step;
      "net.tbwf.ns_per_step", net.ns_per_step;
      "net.tbwf.words_per_step", net.words_per_step;
    ],
    net_counts,
    List.map
      (fun (name, m) -> name, m.ns_range)
      [
        "sim.yield.ns_per_step", yield;
        "registers.atomic.ns_per_step", atomic;
        "registers.abortable.ns_per_step", abortable;
        "objects.qa.ns_per_step", qa;
        "core.tbwf.ns_per_step", core;
        "compiled.tbwf.ns_per_step", compiled;
        "net.tbwf.ns_per_step", net;
      ] )

(* --- the sink-layer ladder on the workload's own cells -------------------- *)

let ladder_reps = 5

let ladder_cells workload ~seed =
  match workload with
  | World_open_loop ->
    let c = world_config ~seed ~setup:false in
    List.init 30 (fun shard -> world_cell c ~shard)
  | Soak_closed_loop ->
    List.init 10 (fun shard ->
        let _, _, cell =
          soak_cell ~horizon:40_000 ~master_seed:(Int64.of_int seed) ~shard
        in
        cell)
  | Mp_matrix ->
    let seed = Int64.of_int seed in
    List.map
      (fun (campaign, plan, system) ->
        (* Campaign.run_plan's wiring on message passing: the plan knows
           the replicas and the network carries the plan's events *)
        let net = Tbwf_net.Net.default_config in
        let plan =
          if Fault_plan.replicas plan > 0 then plan
          else
            Fault_plan.make ~replicas:net.Tbwf_net.Net.replicas
              ~n:(Fault_plan.n plan) ~horizon:(Fault_plan.horizon plan)
              (Fault_plan.atoms plan)
        in
        let config =
          {
            net with
            Tbwf_net.Net.replicas = Fault_plan.replicas plan;
            events = net.Tbwf_net.Net.events @ Fault_plan.net_events plan;
          }
        in
        let n = Fault_plan.n plan and horizon = Fault_plan.horizon plan in
        let policy target =
          Fault_plan.abort_policy plan ~target ~base:Tbwf_registers.Abort_policy.Always
        in
        let snap = max (Fault_plan.settle_step plan) (horizon - (horizon / 4)) in
        {
          label = Campaign.name campaign;
          n;
          horizon;
          every = max 1 (horizon / 8);
          expect_fail = List.mem system (Campaign.expect_fail campaign);
          build =
            (fun ~telemetry ->
              System.build ~substrate:(System.Message_passing config) ~seed
                ~record_trace:false ~qa_policy:(policy Fault_plan.Qa)
                ~mesh_policy:(policy Fault_plan.Omega_mesh) ~telemetry ~n system);
          prepare = (fun stack -> Fault_plan.install_crashes plan stack.System.rt);
          plan;
          min_ops =
            max 2
              (Campaign.required_tail_ops ~n ~tail:(horizon - snap)
              / Campaign.net_cost_factor);
        })
      (mp_cells ~horizon:32_000 ~count:5)

(* Each cell runs at every level on identical seeds, the levels back to
   back within a repetition so that drift hits all of them alike. Per
   (cell, level): the median run time over the repetitions, and the
   minor words of the first one (they repeat exactly). A level's cost is
   its sum over the cells. *)
let ladder workload ~seed =
  let per_cell =
    List.map
      (fun cell ->
        let reps =
          List.init ladder_reps (fun _ ->
              List.map (fun level -> level, run_cell ~level cell) levels)
        in
        let steps = (List.assoc Nil (List.hd reps)).cr_steps in
        (* the sink only observes: every level simulates the same steps *)
        List.iter
          (List.iter (fun (_, r) ->
               if r.cr_steps <> steps then failwith "ladder: levels diverged"))
          reps;
        ( steps,
          List.map
            (fun level ->
              ( level,
                ( median (List.map (fun rep -> (List.assoc level rep).cr_run_ns) reps),
                  (List.assoc level (List.hd reps)).cr_run_words ) ))
            levels ))
      (ladder_cells workload ~seed)
  in
  let steps = float_of_int (List.fold_left (fun acc (s, _) -> acc + s) 0 per_cell) in
  let total pick level =
    sum (List.map (fun (_, ls) -> pick (List.assoc level ls)) per_cell) /. steps
  in
  let ns = total fst and words = total snd in
  [
    "telemetry.collector.ns_per_step", ns Collector_only -. ns Nil;
    "telemetry.collector.words_per_step", words Collector_only -. words Nil;
    "telemetry.live_cost_ratio", ns Collector_only /. ns Nil;
    "check.online.ns_per_step", ns Checked -. ns Collector_only;
    "telemetry.stream.ns_per_step", ns Streamed -. ns Checked;
  ]

(* --- the traced pass ------------------------------------------------------ *)

let nproc () = Domain.recommended_domain_count ()

let timed f =
  let t0 = clock_ns () in
  let r = f () in
  r, (clock_ns () -. t0) /. 1e9

let trace workload ~seed ~domains ~spans_out =
  let micro_metrics, (sent, dropped, micro_ops), micro_ranges = microlayers ~seed in
  Spans.enabled := true;
  let ladder_metrics = ladder workload ~seed in
  let pool = make_pool domains in
  let untraced_run () =
    Spans.enabled := false;
    timed (fun () -> run_workload ?pool ~seed ~setup:false workload)
  in
  let untraced, w_before = untraced_run () in
  Spans.enabled := true;
  let traced, w_traced =
    timed (fun () ->
        Spans.with_ "workload" (fun () ->
            match workload with
            | World_open_loop -> world_traced ?pool (world_config ~seed ~setup:false)
            | Soak_closed_loop | Mp_matrix -> run_workload ?pool ~seed ~setup:false workload))
  in
  (* untraced runs on both sides of the traced one, so that warm-up and
     drift do not land on one side of the overhead ratio *)
  let untraced_after, w_after = untraced_run () in
  let w_untraced = (w_before +. w_after) /. 2.0 in
  let single, w_single = timed (fun () -> run_workload ~seed ~setup:false workload) in
  Spans.write spans_out;
  let m = Option.get traced.merged in
  let total = float_of_int (Collector.total_steps m) in
  let layer_share layer =
    let k = ref 0 in
    for pid = 0 to Collector.n m - 1 do
      k := !k + Collector.layer_steps m ~pid layer
    done;
    float_of_int !k /. total
  in
  let msgs, lost, ops =
    if Collector.net_sent m > 0 then
      Collector.net_sent m, Collector.net_dropped m,
      Array.fold_left ( + ) 0 (Collector.app_completed m)
    else sent, dropped, micro_ops
  in
  let shard_s = Spans.durations_s (cell_span workload) in
  let consistent =
    traced.cells = untraced.cells
    && traced.as_predicted = untraced.as_predicted
    && traced.steps = untraced.steps
    && traced.completed = untraced.completed
  in
  let parallel =
    if domains > 1 then
      let speedup = w_single /. w_untraced in
      [
        "parallel.speedup", speedup;
        (* Karp-Flatt: the serial fraction that explains the speedup *)
        ( "parallel.serial_fraction",
          ((1.0 /. speedup) -. (1.0 /. float_of_int domains))
          /. (1.0 -. (1.0 /. float_of_int domains)) );
      ]
    else []
  in
  let metrics =
    micro_metrics
    @ [
        "net.msgs_per_op", float_of_int msgs /. float_of_int (max 1 ops);
        "net.dropped_share", float_of_int lost /. float_of_int (max 1 msgs);
      ]
    @ ladder_metrics
    @ [
        "telemetry.merge.us_per_shard", 1e6 *. median (Spans.durations_s "Collector.merge");
        "system.build.us_per_cell", 1e6 *. median (Spans.durations_s "System.build");
        "world.shard.ms_p50", 1e3 *. median shard_s;
        ( "world.outside_shards_share",
          1.0 -. (sum shard_s /. (float_of_int (max 1 domains) *. w_traced)) );
      ]
    @ parallel
    @ [
        "steps.app_share", layer_share Sink.App;
        "steps.omega_share", layer_share Sink.Omega;
        "steps.monitor_share", layer_share Sink.Monitor;
        "steps.idle_share", float_of_int (Collector.idle_steps m) /. total;
        "omega.epochs_per_kstep", 1000.0 *. float_of_int (Collector.leader_epochs m) /. total;
        "trace.overhead_ratio", w_traced /. w_untraced;
        "wall.ops_per_s", float_of_int untraced.completed /. w_untraced;
      ]
  in
  print_string single.artifact;
  let digests =
    List.filter_map
      (fun o -> if o.artifact = "" then None else Some (Digest.to_hex (Digest.string o.artifact)))
      [ untraced; traced; untraced_after ]
  in
  Json.Obj
    [
      "metrics", Json.Obj (List.map (fun (k, v) -> k, Json.Float v) metrics);
      "digests", Json.Arr (List.map (fun d -> Json.Str d) digests);
      "consistent", Json.Bool consistent;
      ( "micro_ns_range",
        Json.Obj
          (List.map
             (fun (k, (lo, hi)) -> k, Json.Arr [ Json.Float lo; Json.Float hi ])
             micro_ranges) );
      ( "cells",
        Json.Int
          (List.fold_left (fun acc o -> acc + o.cells) 0
             [ untraced; traced; untraced_after; single ]) );
      ( "wall_s",
        Json.Obj
          [
            "untraced", Json.Arr [ Json.Float w_before; Json.Float w_after ];
            "traced", Json.Float w_traced;
            "one_domain", Json.Float w_single;
          ] );
    ]

(* --- host calibration ------------------------------------------------------ *)

(* A fixed amount of plain OCaml work (allocation, list traversal,
   hashing) that shares no code with the stack. On a shared host the
   speed of a core changes from minute to minute; the CPU time of this
   kernel, taken just before and after a workload, says how fast the
   host ran the process at the time, so the harness can take that speed
   out of the workload's CPU time. *)
let calibration_kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 1 to 600_000 do
    let l = List.init 32 (fun j -> (i * 31) + j) in
    acc := !acc + List.fold_left (fun a x -> a lxor (x * 7)) 0 (List.rev l);
    Hashtbl.replace h (i land 1023) !acc
  done;
  ignore (Sys.opaque_identity (!acc + Hashtbl.length h))

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let calibrate () =
  let c0 = cpu_s () in
  calibration_kernel ();
  cpu_s () -. c0

(* --- entry point ----------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench3 (run|trace) --workload (world_open_loop|soak_closed_loop|mp_matrix) \
     --seed N [--jobs N] [--setup] [--spans-out FILE]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let mode = match args with m :: _ -> m | [] -> usage () in
  let workload =
    match Option.bind (opt "--workload" args) workload_of_string with
    | Some w -> w
    | None -> usage ()
  in
  let seed =
    match Option.bind (opt "--seed" args) int_of_string_opt with
    | Some s -> s
    | None -> usage ()
  in
  let jobs =
    Option.value ~default:1 (Option.bind (opt "--jobs" args) int_of_string_opt)
  in
  (* more domains than cores would measure the scheduler, not the stack *)
  let domains = max 1 (min jobs (nproc ())) in
  let host =
    [
      "domains", Json.Int domains;
      "nproc", Json.Int (nproc ());
      "ocaml_version", Json.Str Sys.ocaml_version;
      "seed", Json.Int seed;
    ]
  in
  let report fields =
    let rss =
      match Tbwf_telemetry.Resource.peak_rss_kb () with
      | Some kb -> Json.Int kb
      | None -> Json.Null
    in
    prerr_endline (Json.to_string (Json.Obj (fields @ host @ [ "peak_rss_kb", rss ])))
  in
  match mode with
  | "run" ->
    let setup = List.mem "--setup" args in
    let before = if setup then 0.0 else calibrate () in
    let cpu0 = cpu_s () in
    let o, wall =
      timed (fun () ->
          let pool = make_pool domains in
          run_workload ?pool ~seed ~setup workload)
    in
    let cpu = cpu_s () -. cpu0 in
    let after = if setup then 0.0 else calibrate () in
    print_string o.artifact;
    report
      [
        "wall_s", Json.Float wall;
        "cpu_s", Json.Float cpu;
        "calibration_cpu_s", Json.Arr [ Json.Float before; Json.Float after ];
      ]
  | "trace" ->
    let spans_out =
      match opt "--spans-out" args with Some p -> p | None -> usage ()
    in
    (match trace workload ~seed ~domains ~spans_out with
    | Json.Obj fields -> report fields
    | _ -> assert false)
  | _ -> usage ()
