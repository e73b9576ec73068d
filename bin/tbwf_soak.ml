(* Long-horizon soak CLI: many independent shards, each a (system,
   campaign) cell from the nemesis catalogue, run through the one cell
   runner (Cell_runner.run) for a long horizon with the memory-bounded
   telemetry configuration — no trace recording, a ring-buffered rate
   series, streaming v2 JSONL snapshots, and the runner's online
   degradation verdict (there is no trace to check post hoc).

   Output contract: stdout carries the deterministic artifact — every
   shard's JSONL stream in shard order, then one tbwf-soak/v1 aggregate
   record — and is byte-identical for any --jobs value (shards fold in
   task order through Pool.fold). Memory is bounded in --shards: a shard
   is printed and merged into its system's running aggregate as the fold
   reaches it, then dropped. Wall-clock numbers (per-shard seconds,
   ops/sec, rss) go to stderr only. *)

open Cmdliner
open Tbwf_sim
open Tbwf_check
open Tbwf_nemesis
open Tbwf_telemetry

let soak_schema_version = "tbwf-soak/v1"

(* Shard i runs system (i mod |systems|) under campaign
   (i / |systems|) mod |catalogue| — systems-major, so any shard count
   covers the systems as evenly as possible. *)
let shard_cell ~shard =
  let systems = Array.of_list Campaign.all_systems in
  let catalogue = Array.of_list Campaign.catalogue in
  let system = systems.(shard mod Array.length systems) in
  let campaign =
    catalogue.(shard / Array.length systems mod Array.length catalogue)
  in
  system, campaign

type shard_result = {
  sr_shard : int;
  sr_system : Campaign.system;
  sr_campaign : string;
  sr_jsonl : string;  (* the shard's v2 stream, one record per line *)
  sr_telemetry : Collector.t;
  sr_holds : bool;
  sr_as_expected : bool;
  sr_seconds : float;
  sr_rss_kb : int option;
      (* process VmHWM when the shard finished: host diagnostics for
         stderr, never part of the stdout artifact *)
}

(* A catalogue cell through the one cell runner, in the memory-bounded
   configuration: no trace recording (the runner's online verdict is the
   only one), a ring-buffered rate series, and a tail monitor teed ahead
   of the collector so each record carries the window it closed. *)
let run_shard ~shard ~n ~horizon ~every ~window ~retain ~master_seed =
  let start = Unix.gettimeofday () in
  let system, campaign = shard_cell ~shard in
  let seed = Rng.task_seed ~master:master_seed shard in
  let tm = Tail_monitor.create ~n ~window:every () in
  let buf = Buffer.create 4096 in
  let fields verdict =
    [
      "shard", Json.Int shard;
      "system", Json.Str (Campaign.system_name system);
      "campaign", Json.Str (Campaign.name campaign);
      "verdict", verdict;
      "tail_monitor", Tail_monitor.to_json tm;
    ]
  in
  let emit r = Buffer.add_string buf (Json.to_string r ^ "\n") in
  let monitor = Some (Tail_monitor.sink tm) in
  let cell =
    Cell_runner.run
      ~plan:(Campaign.plan campaign ~n ~horizon)
      ~stream:(Some { Cell_runner.every; monitor; fields; emit })
      ~build:(fun ~qa_policy ~mesh_policy ->
        Tbwf_system.System.build ~seed ~record_trace:false ~qa_policy
          ~mesh_policy ~telemetry:true ~telemetry_window:window
          ~telemetry_retain:retain ~n system)
  in
  let holds = cell.Cell_runner.cr_verdict.Degradation.holds in
  {
    sr_shard = shard;
    sr_system = system;
    sr_campaign = Campaign.name campaign;
    sr_jsonl = Buffer.contents buf;
    sr_telemetry = cell.Cell_runner.cr_telemetry;
    sr_holds = holds;
    sr_as_expected = holds <> List.mem system (Campaign.expect_fail campaign);
    sr_seconds = Unix.gettimeofday () -. start;
    sr_rss_kb = Resource.peak_rss_kb ();
  }

(* Per-system running tallies: each shard's collector folds into its
   system's merge (a left fold in shard order, as [Collector.merge_all])
   and is dropped, so memory is bounded in the shard count. *)
type per_system = {
  mutable merged : Collector.t option;
  mutable shards : int;
  mutable holds : int;
  mutable as_expected : bool;
}

let fold_shard by_system r =
  print_string r.sr_jsonl;
  (* rss is the process VmHWM when the shard finished — the shard whose
     line first shows a jump is the one that pushed the high-water mark *)
  Fmt.epr "shard %2d %-16s %-12s %s %6.2fs%s@." r.sr_shard
    (Campaign.system_name r.sr_system)
    r.sr_campaign
    (if r.sr_holds then "holds" else "fails")
    r.sr_seconds
    (match r.sr_rss_kb with Some kb -> Fmt.str " rss %d kB" kb | None -> "");
  let py = List.assoc r.sr_system by_system in
  py.merged <-
    Some
      (match py.merged with
      | None -> r.sr_telemetry
      | Some m -> Collector.merge m r.sr_telemetry);
  py.shards <- py.shards + 1;
  if r.sr_holds then py.holds <- py.holds + 1;
  py.as_expected <- py.as_expected && r.sr_as_expected

let merged_systems by_system =
  List.filter_map
    (fun (sys, py) -> Option.map (fun m -> sys, py, m) py.merged)
    by_system

let sum f by_system =
  List.fold_left (fun acc (_, _, m) -> acc + f m) 0 (merged_systems by_system)

let completed m = Array.fold_left ( + ) 0 (Collector.app_completed m)

(* The aggregate record: per-system merged telemetry, completion-time
   tails of the app layer, epoch churn, and the verdict tally. *)
let aggregate ~n ~horizon ~every ~shards by_system =
  let system (sys, py, merged) =
    Json.Obj
      [
        "system", Json.Str (Campaign.system_name sys);
        "shards", Json.Int py.shards;
        "steps", Json.Int (Collector.total_steps merged);
        "completed", Json.Int (completed merged);
        ( "app_tail",
          Quantile.summary_json (Span.tail_of (Collector.spans merged) Sink.App)
        );
        "leader_epochs", Json.Int (Collector.leader_epochs merged);
        "verdict_holds", Json.Int py.holds;
        "as_expected", Json.Bool py.as_expected;
      ]
  in
  Json.Obj
    [
      "schema", Json.Str soak_schema_version;
      "shards", Json.Int shards;
      "n", Json.Int n;
      "horizon_per_shard", Json.Int horizon;
      "every", Json.Int every;
      "total_steps", Json.Int (sum Collector.total_steps by_system);
      "systems", Json.Arr (List.map system (merged_systems by_system));
      ( "all_as_expected",
        Json.Bool (List.for_all (fun (_, py) -> py.as_expected) by_system) );
    ]

let soak shards steps every window retain n seed jobs =
  let every = match every with Some e -> e | None -> max 1 (steps / 8) in
  match
    if shards < 1 then invalid_arg "--shards must be positive";
    if jobs < 1 then invalid_arg "--jobs must be positive";
    if every < 1 then invalid_arg "--every must be positive";
    Cell_runner.validate ~n ~horizon:steps ~window ~retain:(Some retain)
  with
  | exception Invalid_argument msg ->
    Fmt.epr "%s@." msg;
    2
  | () ->
    let master_seed = Int64.of_int seed in
    let pool = Tbwf_parallel.Pool.create ~domains:jobs () in
    let start = Unix.gettimeofday () in
    let by_system =
      List.map
        (fun sys ->
          sys, { merged = None; shards = 0; holds = 0; as_expected = true })
        Campaign.all_systems
    in
    (* Shards fold in shard order, a batch at a time: each is printed and
       merged as the fold reaches it, then dropped. *)
    Tbwf_parallel.Pool.fold pool ~tasks:shards
      (fun shard ->
        run_shard ~shard ~n ~horizon:steps ~every ~window ~retain ~master_seed)
      ~init:()
      (fun () r -> fold_shard by_system r);
    let wall = Unix.gettimeofday () -. start in
    print_string
      (Json.to_string (aggregate ~n ~horizon:steps ~every ~shards by_system));
    print_newline ();
    Fmt.epr "%d shards x %d steps in %.2fs wall (%.0f steps/s, %.0f ops/s)@."
      shards steps wall
      (float_of_int (shards * steps) /. wall)
      (float_of_int (sum completed by_system) /. wall);
    if List.for_all (fun (_, py) -> py.as_expected) by_system then 0 else 1

(* --- cmdliner wiring ------------------------------------------------------ *)

let shards_arg =
  Arg.(value & opt int 10
       & info [ "shards" ] ~docv:"N"
           ~doc:"Independent (system, campaign) shards to run; shard i \
                 runs system (i mod 5) under catalogue campaign \
                 ((i / 5) mod 6).")

let steps_arg =
  Arg.(value & opt int 1_000_000
       & info [ "steps" ] ~docv:"STEPS" ~doc:"Horizon per shard, in steps.")

let every_arg =
  Arg.(value & opt (some int) None
       & info [ "every" ] ~docv:"STEPS"
           ~doc:"Streaming snapshot cadence per shard (default: steps/8).")

let window_arg =
  Arg.(value & opt int 1024
       & info [ "window" ] ~docv:"STEPS"
           ~doc:"Telemetry rate-series window, in steps.")

let retain_arg =
  Arg.(value & opt int 64
       & info [ "retain" ] ~docv:"WINDOWS"
           ~doc:"Rate-series windows kept live per shard (older windows \
                 fold into exact totals) — the memory bound.")

let n_arg =
  Arg.(value & opt int 4
       & info [ "n" ] ~docv:"N" ~doc:"Processes per shard.")

let seed_arg =
  Arg.(value & opt int 0x50AC
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"Master seed; shard i runs with the split seed \
                 task_seed(master, i).")

let jobs_arg =
  Arg.(value & opt int (Tbwf_parallel.Pool.default_domains ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Domains to fan shards out over (stdout is byte-identical \
                 for any value; 1 disables domains).")

let cmd =
  let doc =
    "long-horizon soak: catalogue campaigns at large step counts with \
     memory-bounded telemetry, streaming JSONL snapshots and online \
     degradation verdicts"
  in
  Cmd.v (Cmd.info "tbwf_soak" ~doc)
    Term.(
      const soak $ shards_arg $ steps_arg $ every_arg $ window_arg
      $ retain_arg $ n_arg $ seed_arg $ jobs_arg)

let () = exit (Cmd.eval' cmd)
