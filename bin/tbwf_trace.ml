(* Telemetry CLI: run a scenario or a serialized fault plan with a
   telemetry collector attached, and render what the collector saw — a
   human summary (`run`), an ASCII leader/progress timeline (`timeline`),
   or the deterministic JSON snapshot (`export`).

   Scenario mode reproduces E1's configuration exactly (same builder,
   policy and per-k seed), so `export --k 4` reports the same per-pid op
   counts and leader-epoch count as E1's table row for k = 4. Plan mode
   accepts any tbwf-plan file and runs it through the nemesis campaign
   runner, so a committed counterexample can be inspected with the same
   lenses. `export --check-schema` pins the snapshot's key-path schema
   against a committed golden file; CI uses it to catch export drift. *)

open Cmdliner
open Tbwf_experiments
open Tbwf_nemesis
open Tbwf_telemetry

let fmt = Fmt.stdout

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* --- sources ------------------------------------------------------------- *)

(* What to run: either the E1-style degraded scenario, or a tbwf-plan file
   against one nemesis system. Either way the result is a collector plus a
   one-line description of the run. *)

type run = {
  telemetry : Collector.t;
  describe : string;
  verdict : string option;  (* plan runs carry a degradation verdict *)
}

(* First v2 record of the streaming run, kept so `export` can pin the
   stream schema against a golden the same way it pins the snapshot's. *)
let first_stream_record : Json.t option ref = ref None

let emit_stream record =
  if !first_stream_record = None then first_stream_record := Some record;
  print_string (Json.to_string record);
  print_newline ()

let run_scenario ~substrate ~n ~k ~steps ~seed ~window ~stream_every =
  let timely = List.init k (fun i -> n - 1 - i) in
  let stack =
    Tbwf_system.System.build ~substrate ~seed ~record_trace:false
      ~telemetry:true ~telemetry_window:window ~n
      Tbwf_system.System.Tbwf_atomic
  in
  let rt = stack.Tbwf_system.System.rt in
  let telemetry = Option.get stack.Tbwf_system.System.telemetry in
  (* Streaming: a windowed tail-rate monitor rides along and its running
     state is embedded in every v2 record. The monitor's sink runs first
     in the tee, ahead of the sink the build installed, so when the
     collector emits the record for window w the monitor has closed
     exactly windows 0..w. *)
  (match stream_every with
  | None -> ()
  | Some every ->
    let tm = Tbwf_check.Tail_monitor.create ~n ~window:every () in
    Tbwf_sim.Runtime.set_sink rt
      (Tbwf_sim.Sink.tee
         (Tbwf_check.Tail_monitor.sink tm)
         (Tbwf_sim.Runtime.sink rt));
    Collector.emit_every telemetry ~every
      ~extra:(fun ~window:_ ->
        [ "tail_monitor", Tbwf_check.Tail_monitor.to_json tm ])
      emit_stream);
  (* Replica server pids, when present, get scheduled alongside the
     clients; the E1-style timely set stays a client-pid property. *)
  let policy =
    match substrate with
    | Tbwf_system.System.Shared_memory -> Scenario.degraded_policy ~n ~timely
    | Tbwf_system.System.Message_passing config ->
      Scenario.degraded_policy ~n:(n + config.Tbwf_net.Net.replicas) ~timely
  in
  Tbwf_sim.Runtime.run rt ~policy ~steps;
  if stream_every <> None then Collector.stream_flush telemetry;
  Tbwf_sim.Runtime.stop rt;
  {
    telemetry;
    describe =
      Fmt.str
        "scenario: TBWF counter (atomic-register Ω∆, %s), n=%d, k=%d \
         timely (pids %a), %d steps, seed %Ld"
        (Tbwf_system.System.substrate_name substrate)
        n k
        Fmt.(brackets (list ~sep:comma int))
        timely steps seed;
    verdict = None;
  }

let run_plan_file ~substrate ~path ~system ~seed ~stream_every =
  match Fault_plan.of_string (read_file path) with
  | Error msg -> Error (Fmt.str "bad plan file %s: %s" path msg)
  | Ok plan ->
    let stream =
      Option.map (fun every -> every, emit_stream) stream_every
    in
    let r =
      Campaign.run_plan ~substrate ~seed ?stream ~plan ~system ()
    in
    let v = r.Campaign.rr_verdict in
    Ok
      {
        telemetry = r.Campaign.rr_telemetry;
        describe =
          Fmt.str "plan: %s (%d atoms, n=%d, horizon=%d) vs %s, seed %Ld"
            path
            (List.length (Fault_plan.atoms plan))
            (Fault_plan.n plan) (Fault_plan.horizon plan)
            (Campaign.system_name system)
            seed;
        verdict =
          Some
            (Fmt.str "degradation %s; measured tail ops/pid %a"
               (if v.Tbwf_check.Degradation.holds then "holds" else "FAILS")
               Fmt.(brackets (array ~sep:comma int))
               r.Campaign.rr_tail_ops);
      }

(* Sizes that would otherwise raise deep inside the runtime, the
   collector or the timeline renderer are checked before anything is
   built, so bad input is a message and exit 2. *)
let positive flag = function
  | Some v when v < 1 -> Error (Fmt.str "%s must be positive (got %d)" flag v)
  | _ -> Ok ()

(* Quick dimensions are E1's quick dimensions; the default seed is E1's
   per-k seed so the exported numbers line up with its table. *)
let resolve ?stream_every ?width ~substrate ~plan ~system ~full ~n ~k ~steps
    ~seed ~window () =
  let ( let* ) = Result.bind in
  let* substrate = Tbwf_system.System.substrate_of_name substrate in
  let* () = positive "-n" n in
  let* () = positive "--steps" steps in
  let* () = positive "--window" (Some window) in
  let* () = positive "--width" width in
  let* () = positive "--stream-every" stream_every in
  (* Checked in both modes, so a misspelt name is never ignored. *)
  let* system = Campaign.system_of_name system in
  match plan with
  | Some path ->
    let seed =
      match seed with
      | Some s -> Int64.of_int s
      | None -> Campaign.default_seed
    in
    run_plan_file ~substrate ~path ~system ~seed ~stream_every
  | None ->
    let n = Option.value n ~default:(if full then 8 else 4) in
    let k = Option.value k ~default:n in
    if system <> Campaign.Tbwf_atomic then
      Error
        (Fmt.str "--system %s needs --plan: the scenario runs tbwf-atomic only"
           (Campaign.system_name system))
    else if k < 0 || k > n then Error (Fmt.str "--k must be in 0..%d" n)
    else begin
      let steps =
        Option.value steps ~default:(if full then 240_000 else 60_000)
      in
      let seed =
        match seed with
        | Some s -> Int64.of_int s
        | None -> Int64.of_int (1000 + k)
      in
      Ok (run_scenario ~substrate ~n ~k ~steps ~seed ~window ~stream_every)
    end

let with_run ?stream_every ?width ~substrate ~plan ~system ~full ~n ~k ~steps
    ~seed ~window f =
  match
    resolve ?stream_every ?width ~substrate ~plan ~system ~full ~n ~k ~steps
      ~seed ~window ()
  with
  | Error msg ->
    Fmt.epr "%s@." msg;
    2
  | Ok run -> f run

(* --- subcommands ---------------------------------------------------------- *)

let run_cmd_impl substrate plan system full n k steps seed window width =
  with_run ~width ~substrate ~plan ~system ~full ~n ~k ~steps ~seed ~window
  @@ fun run ->
  Fmt.pf fmt "%s@." run.describe;
  Option.iter (Fmt.pf fmt "%s@.") run.verdict;
  Fmt.pf fmt "@.%a@." Collector.pp_summary run.telemetry;
  Fmt.pf fmt "%a" Timeline.pp (Timeline.build ~width run.telemetry);
  Fmt.flush fmt ();
  0

let timeline_cmd_impl substrate plan system full n k steps seed window width =
  with_run ~width ~substrate ~plan ~system ~full ~n ~k ~steps ~seed ~window
  @@ fun run ->
  Fmt.pf fmt "%s@.@.%a" run.describe Timeline.pp
    (Timeline.build ~width run.telemetry);
  Fmt.flush fmt ();
  0

(* Exit 0 iff [actual] equals the golden schema at [path]; on drift,
   print the missing/extra key paths. Shared by the snapshot and the v2
   stream-record gates. *)
let schema_check ~label ~path actual =
  let golden = read_file path in
  if String.equal golden actual then begin
    Fmt.epr "%s schema matches %s@." label path;
    0
  end
  else begin
    let lines s = String.split_on_char '\n' s in
    let golden_l = lines golden and actual_l = lines actual in
    let missing =
      List.filter (fun l -> l <> "" && not (List.mem l actual_l)) golden_l
    and extra =
      List.filter (fun l -> l <> "" && not (List.mem l golden_l)) actual_l
    in
    Fmt.epr "%s schema DRIFT vs %s@." label path;
    List.iter (Fmt.epr "  - %s@.") missing;
    List.iter (Fmt.epr "  + %s@.") extra;
    1
  end

let export_cmd_impl substrate plan system full n k steps seed window
    stream_every pretty out check_schema write_schema check_stream_schema
    write_stream_schema =
  match stream_every with
  | None when check_stream_schema <> None || write_stream_schema <> None ->
    Fmt.epr
      "--check-stream-schema/--write-stream-schema require --stream-every@.";
    2
  | _ ->
  with_run ?stream_every ~substrate ~plan ~system ~full ~n ~k ~steps ~seed
    ~window
  @@ fun run ->
  let snapshot = Collector.snapshot run.telemetry in
  let text =
    if pretty then Json.to_string_pretty snapshot
    else Json.to_string snapshot ^ "\n"
  in
  (match out with
  | Some path ->
    write_file path text;
    Fmt.epr "snapshot written to %s@." path
  | None -> print_string text);
  (match write_schema with
  | Some path ->
    write_file path (Json.schema_string snapshot);
    Fmt.epr "schema written to %s@." path
  | None -> ());
  (match write_stream_schema, !first_stream_record with
  | Some path, Some record ->
    write_file path (Json.schema_string record);
    Fmt.epr "stream schema written to %s@." path
  | Some path, None -> Fmt.epr "no stream record emitted; %s not written@." path
  | None, _ -> ());
  let rc_snapshot =
    match check_schema with
    | None -> 0
    | Some path ->
      schema_check ~label:"snapshot" ~path (Json.schema_string snapshot)
  in
  let rc_stream =
    match check_stream_schema, !first_stream_record with
    | None, _ -> 0
    | Some path, Some record ->
      schema_check ~label:"stream" ~path (Json.schema_string record)
    | Some _, None ->
      Fmt.epr "no stream record emitted to check@.";
      1
  in
  max rc_snapshot rc_stream

let list_systems_impl () =
  Fmt.pf fmt "%a@." Tbwf_system.System.pp_registry ();
  Fmt.flush fmt ();
  0

(* --- cmdliner wiring ------------------------------------------------------ *)

let plan_arg =
  Arg.(value & opt (some file) None
       & info [ "plan" ] ~docv:"FILE"
           ~doc:"Run the tbwf-plan file $(docv) through the nemesis \
                 campaign runner instead of the E1-style scenario.")

let system_arg =
  Arg.(value & opt string "tbwf-atomic"
       & info [ "system" ] ~docv:"SYSTEM"
           ~doc:"System under test for --plan runs (tbwf-atomic, \
                 tbwf-abortable, tbwf-universal, naive-booster, retry). \
                 The scenario runs tbwf-atomic only: without --plan, any \
                 other system is an error (exit 2).")

let full_arg =
  Arg.(value & flag
       & info [ "full" ]
           ~doc:"Full scenario dimensions (n=8, 240k steps) instead of \
                 quick (n=4, 60k steps).")

let quick_arg =
  (* Quick is already the default; the flag exists so CI invocations can
     say what they mean. *)
  Arg.(value & flag
       & info [ "quick" ] ~doc:"Quick scenario dimensions (the default).")

let n_arg =
  Arg.(value & opt (some int) None
       & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let k_arg =
  Arg.(value & opt (some int) None
       & info [ "k" ] ~docv:"K"
           ~doc:"Timely processes (highest-numbered pids, as in E1). \
                 Default: all of them.")

let steps_arg =
  Arg.(value & opt (some int) None
       & info [ "steps" ] ~docv:"STEPS" ~doc:"Scenario step budget.")

let seed_arg =
  Arg.(value & opt (some int) None
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"Runtime seed. Default: E1's per-k seed (1000+k) in \
                 scenario mode, the nemesis default in plan mode.")

let substrate_arg =
  Arg.(value & opt string "shared-memory"
       & info [ "substrate" ] ~docv:"SUBSTRATE"
           ~doc:"Register substrate: shared-memory, or message-passing \
                 (ABD-style quorum emulation over the simulated network).")

let window_arg =
  Arg.(value & opt int 1024
       & info [ "window" ] ~docv:"STEPS"
           ~doc:"Telemetry rate-series window, in steps.")

let width_arg =
  Arg.(value & opt int 72
       & info [ "width" ] ~docv:"COLS" ~doc:"Timeline width in columns.")

let common f =
  Term.(
    const
      (fun substrate plan system full _quick n k steps seed window ->
        f ~substrate ~plan ~system ~full ~n ~k ~steps ~seed ~window)
    $ substrate_arg $ plan_arg $ system_arg $ full_arg
    $ quick_arg $ n_arg $ k_arg $ steps_arg $ seed_arg $ window_arg)

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:"run a scenario or plan and print the telemetry summary plus \
             the progress/leader timeline")
    Term.(
      common
        (fun ~substrate ~plan ~system ~full ~n ~k ~steps ~seed
             ~window width ->
          run_cmd_impl substrate plan system full n k steps seed
            window width)
      $ width_arg)

let timeline_cmd =
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"run a scenario or plan and print only the progress/leader \
             timeline")
    Term.(
      common
        (fun ~substrate ~plan ~system ~full ~n ~k ~steps ~seed
             ~window width ->
          timeline_cmd_impl substrate plan system full n k steps
            seed window width)
      $ width_arg)

let export_cmd =
  let stream_every =
    Arg.(value & opt (some int) None
         & info [ "stream-every" ] ~docv:"STEPS"
             ~doc:"Stream one tbwf-telemetry/v2 JSONL record per $(docv) \
                   steps to stdout while the run executes (window tails, \
                   epoch churn, net section, running verdicts), before \
                   the final snapshot. The stream derives from \
                   event-ordered state only, so it is byte-identical \
                   under replay.")
  in
  let pretty =
    Arg.(value & flag & info [ "pretty" ] ~doc:"Indent the JSON output.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the snapshot to $(docv) instead of stdout.")
  in
  let check_schema =
    Arg.(value & opt (some file) None
         & info [ "check-schema" ] ~docv:"FILE"
             ~doc:"Exit 1 unless the snapshot's key-path schema equals the \
                   golden schema in $(docv).")
  in
  let write_schema =
    Arg.(value & opt (some string) None
         & info [ "write-schema" ] ~docv:"FILE"
             ~doc:"Write the snapshot's key-path schema to $(docv) (to \
                   regenerate the golden file).")
  in
  let check_stream_schema =
    Arg.(value & opt (some file) None
         & info [ "check-stream-schema" ] ~docv:"FILE"
             ~doc:"Exit 1 unless the first tbwf-telemetry/v2 stream \
                   record's key-path schema equals the golden schema in \
                   $(docv). Requires --stream-every.")
  in
  let write_stream_schema =
    Arg.(value & opt (some string) None
         & info [ "write-stream-schema" ] ~docv:"FILE"
             ~doc:"Write the first stream record's key-path schema to \
                   $(docv) (to regenerate the golden file). Requires \
                   --stream-every.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"run a scenario or plan and export the deterministic JSON \
             telemetry snapshot")
    Term.(
      common
        (fun ~substrate ~plan ~system ~full ~n ~k ~steps ~seed
             ~window stream_every pretty out check_schema write_schema
             check_stream_schema write_stream_schema ->
          export_cmd_impl substrate plan system full n k steps seed
            window stream_every pretty out check_schema write_schema
            check_stream_schema write_stream_schema)
      $ stream_every $ pretty $ out $ check_schema $ write_schema
      $ check_stream_schema $ write_stream_schema)

let list_systems_cmd =
  Cmd.v
    (Cmd.info "list-systems"
       ~doc:"list the system registry: ids, descriptions and paper \
             references (the names accepted by --system)")
    Term.(const list_systems_impl $ const ())

let cmd =
  let doc = "telemetry: summaries, timelines and JSON snapshots of runs" in
  Cmd.group (Cmd.info "tbwf_trace" ~doc)
    [ run_cmd; timeline_cmd; export_cmd; list_systems_cmd ]

let () = exit (Cmd.eval' cmd)
