(* World CLI: many independent cells under open-loop traffic with client
   churn — the sharded front-end over lib/world.

   Output contract, same shape as tbwf_soak: stdout carries the
   deterministic artifact — every shard's JSONL stream in shard order
   (when --every is given), then one tbwf-world/v1 aggregate record —
   and is byte-identical for any --jobs value. Wall-clock throughput,
   per-shard timings and peak-RSS diagnostics go to stderr only.

   Memory is bounded by construction: lib/world folds each shard's
   collector into a running merge and drops it, so a
   half-million-process world (e.g. --shards 65536 --n 8) runs in the
   footprint of one in-flight batch. *)

open Cmdliner
open Tbwf_check
open Tbwf_telemetry
module System = Tbwf_system.System
module World = Tbwf_world.World

let world shards n joiners leavers retire_fraction steps every window retain
    mean_gap keys zipf substrate system seed jobs =
  let systems =
    match system with
    | None -> System.paper_systems
    | Some name -> (
      match System.of_string name with
      | Ok sys -> [ sys ]
      | Error msg ->
        Fmt.epr "--system: %s@." msg;
        exit 2)
  in
  let config =
    {
      World.shards;
      n;
      joiners;
      leavers;
      retire_fraction;
      horizon = steps;
      every;
      window;
      retain = Some retain;
      systems;
      substrate;
      profile = { Tbwf_core.Workload.Open_loop.mean_gap; keys; zipf };
      seed = Int64.of_int seed;
    }
  in
  match World.validate config with
  | exception Invalid_argument msg ->
    Fmt.epr "%s@." msg;
    2
  | () ->
    let pool = Tbwf_parallel.Pool.create ~domains:jobs () in
    let start = Unix.gettimeofday () in
    (* Per-shard stderr lines are only worth reading at small scale; a
       big world gets a progress line per thousand shards instead. *)
    let chatty = shards <= 64 in
    let done_shards = ref 0 in
    let on_shard (r : World.shard_result) =
      print_string r.World.ws_jsonl;
      incr done_shards;
      if chatty then
        Fmt.epr "shard %4d %-16s %s joins=%d leaves=%d ops=%d %6.2fs@."
          r.World.ws_shard
          (System.to_string r.World.ws_system)
          (if r.World.ws_verdict.Degradation.holds then "holds" else "fails")
          (List.length r.World.ws_churn.World.ch_joins)
          (List.length r.World.ws_churn.World.ch_leaves)
          r.World.ws_completed r.World.ws_seconds
      else if !done_shards mod 1024 = 0 then
        Fmt.epr "world %6d/%d shards %7.1fs%s@." !done_shards shards
          (Unix.gettimeofday () -. start)
          (match Resource.peak_rss_kb () with
          | Some kb -> Fmt.str " peak-rss %d kB" kb
          | None -> "")
    in
    let summary = World.run ~pool ~on_shard config in
    let wall = Unix.gettimeofday () -. start in
    print_string (Json.to_string summary.World.sum_json);
    print_newline ();
    Fmt.epr
      "%d shards x %d procs (%d total) x %d steps in %.2fs wall (%.0f \
       steps/s, %.0f ops/s)%s@."
      shards n (shards * n) steps wall
      (float_of_int summary.World.sum_steps /. wall)
      (float_of_int summary.World.sum_completed /. wall)
      (match Resource.peak_rss_kb () with
      | Some kb -> Fmt.str ", peak-rss %d kB" kb
      | None -> "");
    if summary.World.sum_all_hold then 0 else 1

(* --- cmdliner wiring ------------------------------------------------------ *)

let shards_arg =
  Arg.(value & opt int 8
       & info [ "shards" ] ~docv:"N"
           ~doc:"Independent cells; shard i runs system (i mod |systems|) \
                 with seed task_seed(master, i).")

let n_arg =
  Arg.(value & opt int 4
       & info [ "n" ] ~docv:"N"
           ~doc:"Processes per cell (the cell's capacity).")

let joiners_arg =
  Arg.(value & opt int 1
       & info [ "joiners" ] ~docv:"N"
           ~doc:"Processes per cell that join mid-run (the top pids; \
                 their clients activate at a drawn step).")

let leavers_arg =
  Arg.(value & opt int 1
       & info [ "leavers" ] ~docv:"N"
           ~doc:"Initially-active processes per cell that leave mid-run \
                 (retire or crash); pid 0 always stays.")

let retire_fraction_arg =
  Arg.(value & opt float 0.5
       & info [ "retire-fraction" ] ~docv:"P"
           ~doc:"Probability a leaver retires gracefully rather than \
                 crashing.")

let steps_arg =
  Arg.(value & opt int 24_000
       & info [ "steps" ] ~docv:"STEPS" ~doc:"Horizon per shard, in steps.")

let every_arg =
  Arg.(value & opt (some int) None
       & info [ "every" ] ~docv:"STEPS"
           ~doc:"Per-shard streaming snapshot cadence; omit to stream \
                 nothing (the aggregate record is always emitted).")

let window_arg =
  Arg.(value & opt int 1024
       & info [ "window" ] ~docv:"STEPS"
           ~doc:"Telemetry rate-series window, in steps.")

let retain_arg =
  Arg.(value & opt int 64
       & info [ "retain" ] ~docv:"WINDOWS"
           ~doc:"Rate-series windows kept live per shard — the per-shard \
                 memory bound.")

let mean_gap_arg =
  Arg.(value & opt float 600.0
       & info [ "mean-gap" ] ~docv:"STEPS"
           ~doc:"Mean open-loop inter-arrival gap, in steps.")

let keys_arg =
  Arg.(value & opt int 64
       & info [ "keys" ] ~docv:"N" ~doc:"Zipf key universe size per cell.")

let zipf_arg =
  Arg.(value & opt float 1.1
       & info [ "zipf" ] ~docv:"S"
           ~doc:"Zipf popularity exponent; 0 is uniform.")

let substrate_arg =
  let substrate name = name, Result.get_ok (System.substrate_of_name name) in
  Arg.(value
       & opt
           (enum [ substrate "shared-memory"; substrate "message-passing" ])
           System.Shared_memory
       & info [ "substrate" ] ~docv:"KIND"
           ~doc:"Register substrate per cell: shared-memory or \
                 message-passing (quorum emulation over the default \
                 network).")

let system_arg =
  Arg.(value & opt (some string) None
       & info [ "system" ] ~docv:"NAME"
           ~doc:"Run every shard on one system instead of cycling the \
                 paper systems.")

let seed_arg =
  Arg.(value & opt int 0x574C
       & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed.")

let jobs_arg = Cli.jobs "shards"

let cmd =
  let doc =
    "sharded world runs: many independent cells under open-loop \
     Poisson/Zipf traffic with mid-run client churn (joins, graceful \
     retires, crashes), aggregated into one tbwf-world/v1 record at \
     bounded memory"
  in
  Cmd.v (Cli.info "tbwf_world" ~doc)
    Term.(
      const world $ shards_arg $ n_arg $ joiners_arg $ leavers_arg
      $ retire_fraction_arg $ steps_arg $ every_arg $ window_arg $ retain_arg
      $ mean_gap_arg $ keys_arg $ zipf_arg $ substrate_arg $ system_arg
      $ seed_arg $ jobs_arg)

let () = Cli.eval cmd
