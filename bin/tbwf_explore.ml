(* Schedule-exploration CLI: exhaustively explore, fuzz, or replay the named
   scenarios of Tbwf_experiments.Explore_scenarios. Counterexample schedules
   round-trip through the tbwf-sched text format, so a bug found here can be
   committed and replayed as a regression test. *)

open Cmdliner
open Tbwf_experiments

let fmt = Fmt.stdout

let list_scenarios () =
  List.iter
    (fun s ->
      Fmt.pf fmt "%-11s n=%d max_steps=%-3d %s%s@." s.Explore_scenarios.name
        s.Explore_scenarios.n s.Explore_scenarios.max_steps
        s.Explore_scenarios.summary
        (if s.Explore_scenarios.expect_violation then " [buggy by design]"
         else ""))
    Explore_scenarios.all;
  Fmt.flush fmt ();
  0

let with_scenario name k =
  match Explore_scenarios.find name with
  | Some s -> k s
  | None ->
    Fmt.epr "unknown scenario %S (try: tbwf_explore list)@." name;
    2

let save_schedule s out pids =
  match out with
  | None -> ()
  | Some path ->
    let sched = Explore_scenarios.schedule_of s pids in
    Cli.write_file path (Tbwf_sim.Schedule.to_string sched);
    Fmt.pf fmt "schedule written to %s@." path

let pool_of jobs = Tbwf_parallel.Pool.create ~domains:jobs ()

(* A zero budget would explore or fuzz nothing and still report "no
   counterexample", so it is refused before any fan-out. *)
let with_positive flag budget k =
  if budget < 1 then begin
    Fmt.epr "%s must be positive (got %d)@." flag budget;
    2
  end
  else k ()

let explore name naive no_por max_schedules out jobs =
  with_scenario name @@ fun s ->
  with_positive "--max-schedules" max_schedules @@ fun () ->
  let outcome =
    if naive then Explore_scenarios.exhaustive_naive ~max_schedules s
    else
      Explore_scenarios.exhaustive ~max_schedules ~por:(not no_por)
        ~pool:(pool_of jobs) s
  in
  let open Tbwf_check.Explore in
  Fmt.pf fmt "scenario      %s (%s)@." s.Explore_scenarios.name
    s.Explore_scenarios.summary;
  Fmt.pf fmt "explorer      %s@."
    (if naive then "naive (per-prefix re-execution)"
     else if no_por then "incremental dfs"
     else "incremental dfs + sleep-set POR");
  Fmt.pf fmt "schedules     %d@." outcome.schedules;
  Fmt.pf fmt "exhausted     %b@." outcome.exhausted;
  (match outcome.violation with
  | None -> Fmt.pf fmt "violation     none@."
  | Some pids ->
    Fmt.pf fmt "violation     %a@."
      Tbwf_sim.Schedule.pp
      (Explore_scenarios.schedule_of s pids);
    save_schedule s out pids);
  Fmt.flush fmt ();
  if outcome.exhausted
     && outcome.violation <> None <> s.Explore_scenarios.expect_violation
  then 1
  else 0

let fuzz name seed runs out jobs =
  with_scenario name @@ fun s ->
  with_positive "--runs" runs @@ fun () ->
  let f =
    Explore_scenarios.fuzz ~seed:(Int64.of_int seed) ~runs
      ~pool:(pool_of jobs) s
  in
  let open Tbwf_check.Explore in
  Fmt.pf fmt "scenario      %s@." s.Explore_scenarios.name;
  Fmt.pf fmt "runs          %d@." f.fuzz_runs;
  (match f.counterexample with
  | None -> Fmt.pf fmt "counterexample none@."
  | Some pids ->
    Fmt.pf fmt "witness len   %d (shrunk from %d)@." (List.length pids)
      (Option.value f.shrunk_from ~default:(List.length pids));
    Fmt.pf fmt "counterexample %a@."
      Tbwf_sim.Schedule.pp
      (Explore_scenarios.schedule_of s pids);
    save_schedule s out pids);
  Fmt.flush fmt ();
  0

let replay name file expect_violation =
  with_scenario name @@ fun s ->
  match Tbwf_sim.Schedule.of_string (Cli.read_file file) with
  | Error msg ->
    Fmt.epr "bad schedule file %s: %s@." file msg;
    2
  | Ok sched ->
    let held = Explore_scenarios.replay s (Tbwf_sim.Schedule.pids sched) in
    Fmt.pf fmt "scenario      %s@." s.Explore_scenarios.name;
    Fmt.pf fmt "schedule      %d steps@." (Tbwf_sim.Schedule.length sched);
    Fmt.pf fmt "invariant     %s@." (if held then "held" else "VIOLATED");
    Fmt.flush fmt ();
    if held <> not expect_violation then 1 else 0

(* --- cmdliner wiring ----------------------------------------------------- *)

let scenario_arg =
  let doc = "Scenario name (see `tbwf_explore list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)

let out_arg =
  let doc = "Write any counterexample schedule to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let jobs_arg = Cli.jobs "the search"

let list_cmd =
  Cmd.v (Cli.info "list" ~doc:"list the built-in scenarios")
    Term.(const list_scenarios $ const ())

let explore_cmd =
  let naive =
    Arg.(value & flag
         & info [ "naive" ] ~doc:"Use the pre-reduction per-prefix explorer.")
  in
  let no_por =
    Arg.(value & flag
         & info [ "no-por" ] ~doc:"Disable sleep-set partial-order reduction.")
  in
  let max_schedules =
    let doc = "Schedule budget; past it the outcome is marked not exhausted." in
    Arg.(value & opt int 200_000 & info [ "max-schedules" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cli.info "explore"
       ~doc:"exhaustively explore every schedule of a scenario")
    Term.(
      const explore $ scenario_arg $ naive $ no_por $ max_schedules $ out_arg
      $ jobs_arg)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 0xF00D & info [ "seed" ] ~docv:"SEED"
           ~doc:"Fuzzer seed (fuzzing is deterministic per seed).")
  in
  let runs =
    Arg.(value & opt int 2_000 & info [ "runs" ] ~docv:"N"
           ~doc:"Random schedules to try.")
  in
  Cmd.v
    (Cli.info "fuzz"
       ~doc:"random-schedule fuzzing; shrinks any failure to a minimal script")
    Term.(const fuzz $ scenario_arg $ seed $ runs $ out_arg $ jobs_arg)

let replay_cmd =
  let file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE"
           ~doc:"Schedule file in tbwf-sched format.")
  in
  let expect_violation =
    Arg.(value & flag
         & info [ "expect-violation" ]
             ~doc:"Exit 0 iff the replay violates the invariant (for \
                   committed counterexamples).")
  in
  Cmd.v
    (Cli.info "replay" ~doc:"replay a serialized schedule deterministically")
    Term.(const replay $ scenario_arg $ file $ expect_violation)

let cmd =
  let doc = "explore, fuzz and replay schedules of TBWF scenarios" in
  Cmd.group (Cli.info "tbwf_explore" ~doc)
    [ list_cmd; explore_cmd; fuzz_cmd; replay_cmd ]

let () = Cli.eval cmd
