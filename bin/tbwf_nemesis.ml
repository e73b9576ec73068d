(* Nemesis CLI: run named fault-injection campaigns against the paper's
   algorithms and the baselines, fuzz (schedule, fault-plan) pairs, and
   replay serialized counterexamples. Fault plans round-trip through the
   tbwf-plan text format, so a failing plan can be committed and replayed
   as a regression test, exactly like schedules in tbwf_explore. *)

open Cmdliner
open Tbwf_nemesis
module System = Tbwf_system.System

let fmt = Fmt.stdout

let list_campaigns () =
  List.iter
    (fun c ->
      Fmt.pf fmt "%-12s [%s] %s@." (Campaign.name c) (Campaign.headline_atom c)
        (Campaign.summary c))
    Campaign.catalogue;
  Fmt.flush fmt ();
  0

let list_systems () =
  Fmt.pf fmt "%a@." System.pp_registry ();
  Fmt.flush fmt ();
  0

let with_campaign name k =
  match Campaign.find name with
  | Some c -> k c
  | None ->
    Fmt.epr "unknown campaign %S (try: tbwf_nemesis list)@." name;
    2

let report_outcome o =
  Fmt.pf fmt "@[<v>%a@]@." Campaign.pp_outcome o;
  Fmt.flush fmt ();
  if o.Campaign.o_ok then 0 else 1

let with_substrate name k =
  match System.substrate_of_name name with
  | Ok substrate -> k substrate
  | Error msg ->
    Fmt.epr "%s@." msg;
    2

let run_campaign substrate name full seed jobs =
  with_substrate substrate @@ fun substrate ->
  with_campaign name @@ fun c ->
  let pool = Tbwf_parallel.Pool.create ~domains:jobs () in
  report_outcome
    (Campaign.run ~substrate ~quick:(not full) ~seed:(Int64.of_int seed)
       ~pool c)

let matrix substrate full seed jobs =
  with_substrate substrate @@ fun substrate ->
  let pool = Tbwf_parallel.Pool.create ~domains:jobs () in
  let m =
    Campaign.run_matrix ~substrate ~pool ~quick:(not full)
      ~seed:(Int64.of_int seed) ()
  in
  (* Self-describing dimensions header: the substrate cost factor scales
     the horizons *and* divides the tail-rate floor, so a matrix reader
     can audit every cell's floor without consulting the source. On
     shared memory the factor is 1 and the line still says so. *)
  let n, horizon =
    Campaign.substrate_dimensions ~substrate ~quick:(not full) ()
  in
  let factor = Cell_runner.cost_factor substrate in
  Fmt.pf fmt
    "dimensions   n=%d horizon=%d net-cost-factor=%d (horizon x%d, \
     tail-rate floor /%d)@."
    n horizon factor factor factor;
  (* campaign × system grid of degradation verdicts *)
  Fmt.pf fmt "%-12s" "";
  List.iter
    (fun s -> Fmt.pf fmt " %-16s" (System.to_string s))
    System.all;
  Fmt.pf fmt "@.";
  List.iter
    (fun o ->
      Fmt.pf fmt "%-12s" (Campaign.name o.Campaign.o_campaign);
      List.iter
        (fun r ->
          let v = r.Campaign.row_result.Campaign.rr_verdict in
          Fmt.pf fmt " %-16s"
            (Fmt.str "%s%s"
               (if v.Tbwf_check.Degradation.holds then "holds" else "fails")
               (if r.Campaign.row_as_expected then "" else " [!]")))
        o.Campaign.o_rows;
      Fmt.pf fmt "@.")
    m.Campaign.m_outcomes;
  (* Per-cell wall times go to stderr: stdout is the deterministic
     artifact (goldens diff it), timing is diagnostics. *)
  List.iter
    (fun o ->
      List.iter
        (fun r ->
          Fmt.epr "cell %-12s %-16s %6.2fs@."
            (Campaign.name o.Campaign.o_campaign)
            (System.to_string r.Campaign.row_system)
            r.Campaign.row_result.Campaign.rr_seconds)
        o.Campaign.o_rows)
    m.Campaign.m_outcomes;
  Fmt.pf fmt "@.matrix %s@."
    (if m.Campaign.m_ok then "as predicted"
     else "NOT as predicted ([!] rows differ)");
  Fmt.pf fmt "@,aggregate telemetry (all cells):@.%a@."
    Tbwf_telemetry.Collector.pp_summary m.Campaign.m_telemetry;
  Fmt.flush fmt ();
  if m.Campaign.m_ok then 0 else 1

let fuzz substrate seed runs horizon plan_out sched_out jobs =
  with_substrate substrate @@ fun substrate ->
  (* Checked before fan-out: a non-positive horizon would otherwise fail
     once per fuzzed run, inside the pool, and zero runs would report a
     vacuous "counterexample none". *)
  if horizon < 1 then begin
    Fmt.epr "--horizon must be positive (got %d)@." horizon;
    2
  end
  else if runs < 1 then begin
    Fmt.epr "--runs must be positive (got %d)@." runs;
    2
  end
  else
  let pool = Tbwf_parallel.Pool.create ~domains:jobs () in
  let outcome =
    Plan_fuzz.demo ~seed:(Int64.of_int seed) ~runs ~pool ~substrate
      ~horizon ()
  in
  let open Tbwf_check.Explore in
  Fmt.pf fmt "runs          %d@." outcome.plan_runs;
  match outcome.plan_counterexample with
  | None ->
    Fmt.pf fmt "counterexample none@.";
    Fmt.flush fmt ();
    1
  | Some (pids, plan) ->
    Fmt.pf fmt "witness len   %d (shrunk from %d), plan atoms %d@."
      (List.length pids)
      (Option.value outcome.plan_shrunk_from ~default:(List.length pids))
      (List.length (Fault_plan.atoms plan));
    Fmt.pf fmt "plan:@.%s" (Fault_plan.to_string plan);
    (* The round-trip guarantee: serialize the shrunk plan, parse it back,
       and check the replay is byte-identical to the direct one. *)
    let text = Fault_plan.to_string plan in
    (match Fault_plan.of_string text with
    | Error msg ->
      Fmt.epr "serialized plan failed to parse: %s@." msg;
      2
    | Ok plan' ->
      let held1, fp1 = Plan_fuzz.demo_replay ~substrate plan pids in
      let held2, fp2 = Plan_fuzz.demo_replay ~substrate plan' pids in
      Fmt.pf fmt "replay        invariant %s@."
        (if held1 then "held (UNEXPECTED)" else "violated (as found)");
      Fmt.pf fmt "round-trip    %s@."
        (if (not held2) && String.equal fp1 fp2 then
           "byte-identical replay from serialized plan"
         else "MISMATCH");
      (match plan_out with
      | Some path ->
        Cli.write_file path text;
        Fmt.pf fmt "plan written to %s@." path
      | None -> ());
      (match sched_out with
      | Some path ->
        let sched =
          Tbwf_sim.Schedule.make
            ~n:(Plan_fuzz.demo_pid_count ~substrate plan')
            pids
        in
        Cli.write_file path (Tbwf_sim.Schedule.to_string sched);
        Fmt.pf fmt "schedule written to %s@." path
      | None -> ());
      Fmt.flush fmt ();
      if (not held1) && (not held2) && String.equal fp1 fp2 then 0 else 1)

let replay substrate plan_file sched_file expect_violation =
  with_substrate substrate @@ fun substrate ->
  match Fault_plan.of_string (Cli.read_file plan_file) with
  | Error msg ->
    Fmt.epr "bad plan file %s: %s@." plan_file msg;
    2
  | Ok plan ->
    let pids_result =
      match sched_file with
      | None -> Ok []
      | Some f ->
        Result.map Tbwf_sim.Schedule.pids
          (Tbwf_sim.Schedule.of_string (Cli.read_file f))
    in
    (match pids_result with
    | Error msg ->
      Fmt.epr "bad schedule file: %s@." msg;
      2
    | Ok pids ->
      let held, _fp = Plan_fuzz.demo_replay ~substrate plan pids in
      Fmt.pf fmt "plan          %d atoms, n=%d, horizon=%d@."
        (List.length (Fault_plan.atoms plan))
        (Fault_plan.n plan) (Fault_plan.horizon plan);
      Fmt.pf fmt "schedule      %d steps@." (List.length pids);
      Fmt.pf fmt "invariant     %s@." (if held then "held" else "VIOLATED");
      Fmt.flush fmt ();
      if held <> not expect_violation then 1 else 0)

(* --- cmdliner wiring ----------------------------------------------------- *)

let campaign_arg =
  let doc = "Campaign name (see `tbwf_nemesis list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CAMPAIGN" ~doc)

let full_arg =
  Arg.(value & flag
       & info [ "full" ]
           ~doc:"Full dimensions (n=6, 480k steps) instead of quick (n=4, \
                 96k steps).")

let seed_arg =
  Arg.(value & opt int 0x4E454D45
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"Runtime seed (campaigns are deterministic per seed).")

let substrate_arg =
  Arg.(value & opt string "shared-memory"
       & info [ "substrate" ] ~docv:"SUBSTRATE"
           ~doc:"Register substrate: shared-memory, or message-passing \
                 (ABD-style quorum emulation over the simulated network).")

let jobs_arg = Cli.jobs "independent runs"

let list_cmd =
  Cmd.v (Cli.info "list" ~doc:"list the campaign catalogue")
    Term.(const list_campaigns $ const ())

let list_systems_cmd =
  Cmd.v
    (Cli.info "list-systems"
       ~doc:"list the system registry: ids, descriptions and paper \
             references (the systems accepted by run/matrix and by \
             tbwf_trace --system)")
    Term.(const list_systems $ const ())

let run_cmd =
  Cmd.v
    (Cli.info "run"
       ~doc:"run one campaign against every system; exit 0 iff every \
             verdict matches the campaign's prediction")
    Term.(
      const run_campaign $ substrate_arg $ campaign_arg
      $ full_arg $ seed_arg $ jobs_arg)

let matrix_cmd =
  Cmd.v
    (Cli.info "matrix"
       ~doc:"run the whole catalogue and print the campaign × system \
             degradation matrix")
    Term.(
      const matrix $ substrate_arg $ full_arg $ seed_arg $ jobs_arg)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 0xF001 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Fuzzer seed (fuzzing is deterministic per seed).")
  in
  let runs =
    Arg.(value & opt int 200 & info [ "runs" ] ~docv:"N"
           ~doc:"Random (schedule, plan) pairs to try.")
  in
  let horizon =
    Arg.(value & opt int 400 & info [ "horizon" ] ~docv:"STEPS"
           ~doc:"Step budget per fuzzed run.")
  in
  let plan_out =
    Arg.(value & opt (some string) None
         & info [ "plan-out" ] ~docv:"FILE"
             ~doc:"Write the shrunk counterexample plan to $(docv).")
  in
  let sched_out =
    Arg.(value & opt (some string) None
         & info [ "sched-out" ] ~docv:"FILE"
             ~doc:"Write the shrunk counterexample schedule to $(docv).")
  in
  Cmd.v
    (Cli.info "fuzz"
       ~doc:"fuzz (schedule, fault-plan) pairs against the planted-bug \
             demo; shrinks both dimensions and checks the serialized plan \
             replays byte-identically")
    Term.(
      const fuzz $ substrate_arg $ seed $ runs $ horizon $ plan_out
      $ sched_out $ jobs_arg)

let replay_cmd =
  let plan_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PLAN"
           ~doc:"Fault-plan file in tbwf-plan format.")
  in
  let sched_file =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"SCHED"
           ~doc:"Optional schedule file in tbwf-sched format.")
  in
  let expect_violation =
    Arg.(value & flag
         & info [ "expect-violation" ]
             ~doc:"Exit 0 iff the replay violates the invariant (for \
                   committed counterexamples).")
  in
  Cmd.v
    (Cli.info "replay"
       ~doc:"replay a serialized (plan, schedule) counterexample against \
             the demo scenario")
    Term.(const replay $ substrate_arg $ plan_file $ sched_file
          $ expect_violation)

let cmd =
  let doc = "fault-injection campaigns with graceful-degradation verdicts" in
  Cmd.group (Cli.info "tbwf_nemesis" ~doc)
    [ list_cmd; list_systems_cmd; run_cmd; matrix_cmd; fuzz_cmd; replay_cmd ]

let () = Cli.eval cmd
