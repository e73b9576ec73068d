(* The nemesis subsystem: fault-plan serialization, compiled-plan
   determinism, campaign verdicts, and the planted-bug fuzz demo. *)

open Tbwf_sim
open Tbwf_nemesis

(* One atom of every kind, exercising every field of the text format. *)
let kitchen_sink =
  Fault_plan.make ~n:4 ~horizon:10_000
    [
      Fault_plan.Crash { pid = 3; at = 7_000 };
      Fault_plan.Slow { pid = 0; at = 0; gap = 60; growth = 1.15 };
      Fault_plan.Timely { pid = 1; at = 5_000; period = 5 };
      Fault_plan.Flicker
        { pid = 2; at = 1_000; active = 80; sleep = 200; growth = 1.3 };
      Fault_plan.Abort_ramp
        {
          target = Fault_plan.Qa;
          from = 2_500;
          until = 7_500;
          rate0 = 0.5;
          rate1 = 0.9;
        };
      Fault_plan.Staleness { from = 2_500; until = 7_500 };
    ]

let test_round_trip () =
  let text = Fault_plan.to_string kitchen_sink in
  match Fault_plan.of_string text with
  | Error msg -> Alcotest.failf "kitchen sink failed to parse: %s" msg
  | Ok plan ->
    Alcotest.(check bool) "round-trips exactly" true
      (Fault_plan.equal kitchen_sink plan);
    Alcotest.(check string) "second serialization identical" text
      (Fault_plan.to_string plan)

let test_comments_and_blanks () =
  let text = Fault_plan.to_string kitchen_sink in
  let sprinkled =
    String.concat "\n"
      (List.concat_map
         (fun line -> [ "# a comment"; ""; line ])
         (String.split_on_char '\n' text))
  in
  match Fault_plan.of_string sprinkled with
  | Error msg -> Alcotest.failf "comments broke parsing: %s" msg
  | Ok plan ->
    Alcotest.(check bool) "comments and blanks ignored" true
      (Fault_plan.equal kitchen_sink plan)

let test_rejects_garbage () =
  let bad text =
    match Fault_plan.of_string text with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "wrong magic" true (bad "tbwf-sched v1 n=2\n");
  Alcotest.(check bool) "bad atom kind" true
    (bad "tbwf-plan v1 n=2 horizon=100\nmelt pid=0 at=3\n");
  Alcotest.(check bool) "out-of-range pid" true
    (bad "tbwf-plan v1 n=2 horizon=100\ncrash pid=7 at=3\n")

let test_prediction () =
  Alcotest.(check (list int))
    "slow and crashed pids excluded, timely-restored included" [ 1 ]
    (Fault_plan.predicted_timely kitchen_sink);
  Alcotest.(check int) "settles at the last fault" 7_500
    (Fault_plan.settle_step kitchen_sink)

(* --- tbwf-plan v2: network atoms, replicas, forward compatibility --- *)

(* One atom of every v2 kind, node fields in both Some/None and
   client/replica flavours, plus an unknown future kind. *)
let net_kitchen_sink =
  Fault_plan.make ~replicas:3 ~n:4 ~horizon:10_000
    [
      Fault_plan.Slow { pid = 0; at = 0; gap = 60; growth = 1.15 };
      Fault_plan.Partition
        { at = 2_000; side = [ Fault_plan.Client 1; Fault_plan.Replica 2 ] };
      Fault_plan.Heal { at = 4_000 };
      Fault_plan.Delay_ramp
        { from = 1_000; until = 6_000; extra0 = 0.0; extra1 = 8.0;
          node = None };
      Fault_plan.Delay_ramp
        { from = 2_000; until = 7_000; extra0 = 1.0; extra1 = 3.0;
          node = Some (Fault_plan.Replica 1) };
      Fault_plan.Drop
        { from = 3_000; until = 8_000; rate0 = 0.25; rate1 = 0.75;
          node = Some (Fault_plan.Client 0) };
      Fault_plan.Crash_replica { r = 2; at = 7_000 };
      Fault_plan.Unknown { line = "quantum-foam pid=0 at=9000" };
    ]

let test_v2_round_trip () =
  let text = Fault_plan.to_string net_kitchen_sink in
  Alcotest.(check bool) "serializes under the v2 header" true
    (String.length text > 13 && String.equal (String.sub text 0 13)
       "tbwf-plan v2 ");
  match Fault_plan.of_string text with
  | Error msg -> Alcotest.failf "net kitchen sink failed to parse: %s" msg
  | Ok plan ->
    Alcotest.(check bool) "round-trips exactly" true
      (Fault_plan.equal net_kitchen_sink plan);
    Alcotest.(check string) "second serialization identical" text
      (Fault_plan.to_string plan)

(* Growing the format must not disturb committed v1 plans: a plan with
   only v1 atoms and no replicas still serializes byte-for-byte under the
   v1 header, with no replicas= field. *)
let test_v1_header_stable () =
  let text = Fault_plan.to_string kitchen_sink in
  Alcotest.(check bool) "v1 header" true
    (String.equal (String.sub text 0 13) "tbwf-plan v1 ");
  Alcotest.(check bool) "no replicas field" true
    (not
       (List.exists
          (fun line ->
            String.length line >= 9 && String.sub line 0 9 = "replicas=")
          (String.split_on_char ' ' (List.hd (String.split_on_char '\n' text)))))

let test_unknown_kind_versioned () =
  let body = "quantum-foam pid=0 at=9000\n" in
  (match
     Fault_plan.of_string ("tbwf-plan v2 n=2 horizon=100 replicas=3\n" ^ body)
   with
  | Error msg -> Alcotest.failf "v2 rejected an unknown kind: %s" msg
  | Ok plan ->
    Alcotest.(check bool) "preserved verbatim" true
      (Fault_plan.atoms plan
      = [ Fault_plan.Unknown { line = "quantum-foam pid=0 at=9000" } ]));
  match Fault_plan.of_string ("tbwf-plan v1 n=2 horizon=100\n" ^ body) with
  | Ok _ -> Alcotest.fail "v1 accepted an unknown kind"
  | Error _ -> ()

let test_emergent_prediction () =
  (* Client 1 partitioned away from every replica, persistently: it is
     emergently untimely; the others reach all three replicas. *)
  let plan =
    Fault_plan.make ~replicas:3 ~n:3 ~horizon:10_000
      [ Fault_plan.Partition { at = 5_000; side = [ Fault_plan.Client 1 ] } ]
  in
  match Fault_plan.emergent plan with
  | None -> Alcotest.fail "replicated plan has no emergent structure"
  | Some em ->
    let open Tbwf_check.Degradation in
    Alcotest.(check (list int)) "all replicas live" [ 0; 1; 2 ] em.em_live;
    Alcotest.(check bool) "cut client not quorate" false
      (emergent_quorate em 1);
    Alcotest.(check bool) "mainland client quorate" true
      (emergent_quorate em 0);
    (* A heal after the cut restores everyone. *)
    let healed =
      Fault_plan.make ~replicas:3 ~n:3 ~horizon:10_000
        [
          Fault_plan.Partition { at = 5_000; side = [ Fault_plan.Client 1 ] };
          Fault_plan.Heal { at = 6_000 };
        ]
    in
    (match Fault_plan.emergent healed with
    | None -> Alcotest.fail "healed plan has no emergent structure"
    | Some em ->
      Alcotest.(check bool) "healed client quorate again" true
        (emergent_quorate em 1));
    (* Crashing a minority leaves everyone quorate; the events compile. *)
    let crashed =
      Fault_plan.make ~replicas:3 ~n:3 ~horizon:10_000
        [ Fault_plan.Crash_replica { r = 0; at = 100 } ]
    in
    (match Fault_plan.emergent crashed with
    | None -> Alcotest.fail "crashed plan has no emergent structure"
    | Some em ->
      Alcotest.(check (list int)) "minority crash leaves a live majority"
        [ 1; 2 ] em.em_live;
      Alcotest.(check bool) "clients still quorate" true
        (emergent_quorate em 0));
    Alcotest.(check int) "network atoms compile to events" 3
      (List.length (Fault_plan.net_events plan)
      + List.length (Fault_plan.net_events healed))

let qcheck_gen_v2_round_trip =
  QCheck.Test.make
    ~name:"generated replicated plans round-trip through text" ~count:200
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let plan = Fault_plan.gen ~replicas:3 rng ~n:4 ~horizon:8_000 in
      match Fault_plan.of_string (Fault_plan.to_string plan) with
      | Error _ -> false
      | Ok plan' -> Fault_plan.equal plan plan')

(* Satellite: shrinking must carry atom kinds it does not understand
   through both ddmin and the text round-trip the CLI applies to every
   candidate, instead of silently dropping them. The fails predicate only
   accepts plans that still contain the planted future atom after a
   serialize/parse cycle — if shrinking dropped or mangled it, no
   candidate would fail and the shrinker would return the plan unshrunk
   with the atom gone. *)
let test_shrink_preserves_unknown_atoms () =
  let planted = "quantum-foam pid=0 at=9000" in
  let plan =
    Fault_plan.make ~replicas:3 ~n:4 ~horizon:10_000
      [
        Fault_plan.Crash { pid = 3; at = 7_000 };
        Fault_plan.Slow { pid = 0; at = 0; gap = 60; growth = 1.15 };
        Fault_plan.Unknown { line = planted };
        Fault_plan.Heal { at = 4_000 };
      ]
  in
  let has_unknown p =
    List.mem (Fault_plan.Unknown { line = planted }) (Fault_plan.atoms p)
  in
  let fails p =
    match Fault_plan.of_string (Fault_plan.to_string p) with
    | Error _ -> false
    | Ok p' -> has_unknown p'
  in
  let shrunk = Fault_plan.shrink ~fails plan in
  Alcotest.(check bool) "unknown atom survives shrinking" true
    (has_unknown shrunk);
  Alcotest.(check int) "shrunk to the single load-bearing atom" 1
    (List.length (Fault_plan.atoms shrunk));
  Alcotest.(check string) "re-serializes verbatim"
    (Fault_plan.to_string shrunk)
    (Fault_plan.to_string
       (Result.get_ok (Fault_plan.of_string (Fault_plan.to_string shrunk))))

let qcheck_gen_round_trip =
  QCheck.Test.make ~name:"generated plans round-trip through text" ~count:200
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let plan = Fault_plan.gen rng ~n:4 ~horizon:8_000 in
      match Fault_plan.of_string (Fault_plan.to_string plan) with
      | Error _ -> false
      | Ok plan' -> Fault_plan.equal plan plan')

(* Satellite 4: one (seed, plan, scenario) must produce byte-identical
   traces on repeated runs. The scenario exercises every compilation
   surface: the plan's policy drives the schedule, its crashes are
   installed, and both channel-level targets get plan-wrapped abort
   policies over registers the tasks hammer. *)
let fingerprint_run ~seed plan =
  let n = Fault_plan.n plan in
  let rt = Runtime.create ~seed ~n () in
  let trace = Trace.create () in
  Runtime.set_sink rt (Trace.recorder trace);
  let open Tbwf_registers in
  let qa =
    Abortable_reg.create rt ~name:"qa-reg" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1
      ~policy:(Fault_plan.abort_policy plan ~target:Fault_plan.Qa
                 ~base:Abort_policy.Always)
      ()
  in
  let mesh =
    Abortable_reg.create rt ~name:"hb-mesh" ~codec:Codec.int ~init:0 ~writer:2
      ~reader:0
      ~policy:(Fault_plan.abort_policy plan ~target:Fault_plan.Omega_mesh
                 ~base:Abort_policy.Always)
      ()
  in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      let k = ref 0 in
      while true do
        incr k;
        ignore (Abortable_reg.write qa !k);
        ignore (Abortable_reg.read mesh)
      done);
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      while true do
        ignore (Abortable_reg.read qa)
      done);
  Runtime.spawn rt ~pid:2 ~name:"hb" (fun () ->
      let k = ref 0 in
      while true do
        incr k;
        ignore (Abortable_reg.write mesh !k)
      done);
  Fault_plan.install_crashes plan rt;
  Runtime.run rt ~policy:(Fault_plan.policy plan)
    ~steps:(Fault_plan.horizon plan);
  Runtime.stop rt;
  Trace.fingerprint trace

let qcheck_deterministic_replay =
  QCheck.Test.make
    ~name:"same (seed, plan, scenario) gives byte-identical traces"
    ~count:40
    QCheck.(pair (int_range 1 100_000) (int_range 1 100_000))
    (fun (seed, plan_seed) ->
      let rng = Rng.create (Int64.of_int plan_seed) in
      let plan = Fault_plan.gen rng ~n:3 ~horizon:2_000 in
      let seed = Int64.of_int seed in
      String.equal (fingerprint_run ~seed plan) (fingerprint_run ~seed plan))

(* A plan parsed back from its serialization compiles identically too. *)
let qcheck_serialized_plan_replays =
  QCheck.Test.make
    ~name:"serialized plan replays byte-identically" ~count:40
    QCheck.(int_range 1 100_000)
    (fun plan_seed ->
      let rng = Rng.create (Int64.of_int plan_seed) in
      let plan = Fault_plan.gen rng ~n:3 ~horizon:2_000 in
      match Fault_plan.of_string (Fault_plan.to_string plan) with
      | Error _ -> false
      | Ok plan' ->
        String.equal
          (fingerprint_run ~seed:42L plan)
          (fingerprint_run ~seed:42L plan'))

(* Campaign smoke: the headline campaign separates a paper system from the
   naive booster at quick dimensions, and the degradation checker agrees
   with both predictions. *)
let test_campaign_smoke () =
  match Campaign.find "slowdown" with
  | None -> Alcotest.fail "slowdown campaign missing from catalogue"
  | Some c ->
    let o =
      Campaign.run ~quick:true
        ~systems:[ Campaign.Tbwf_atomic; Campaign.Naive_booster ] c
    in
    Alcotest.(check bool) "both verdicts as predicted" true o.Campaign.o_ok;
    List.iter
      (fun r ->
        let holds =
          r.Campaign.row_result.Campaign.rr_verdict
            .Tbwf_check.Degradation.holds
        in
        match r.Campaign.row_system with
        | Campaign.Tbwf_atomic ->
          Alcotest.(check bool) "tbwf-atomic holds" true holds
        | Campaign.Naive_booster ->
          Alcotest.(check bool) "naive booster fails" false holds
        | _ -> ())
      o.Campaign.o_rows

let test_catalogue_covers_every_atom () =
  let atoms =
    List.sort_uniq compare (List.map Campaign.headline_atom Campaign.catalogue)
  in
  Alcotest.(check (list string))
    "one campaign per fault atom"
    [ "abort-ramp"; "crash"; "flicker"; "slow"; "staleness"; "timely" ]
    atoms;
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Fmt.str "%s expects every baseline to fail" (Campaign.name c))
        true
        (List.for_all
           (fun s -> List.mem s (Campaign.expect_fail c))
           Campaign.baseline_systems))
    Campaign.catalogue

(* The cell runner always hands the plan's compiled abort policies to
   the caller's build. A world cell's plan has only crash and retire
   atoms, and its stacks must match System.build's defaults, so a plan
   without abort atoms must compile to exactly those defaults. *)
let test_policies_default_without_abort_atoms () =
  let is_always = function
    | Tbwf_registers.Abort_policy.Always -> true
    | _ -> false
  in
  let churn =
    Fault_plan.make ~n:4 ~horizon:8_000
      [
        Fault_plan.Retire { pid = 1; at = 2_000 };
        Fault_plan.Crash { pid = 2; at = 3_000 };
        Fault_plan.Slow { pid = 0; at = 0; gap = 60; growth = 1.15 };
      ]
  in
  List.iter
    (fun target ->
      Alcotest.(check bool) "no abort atoms: the build default" true
        (is_always
           (Fault_plan.abort_policy churn ~target
              ~base:Tbwf_registers.Abort_policy.Always)))
    [ Fault_plan.Qa; Fault_plan.Omega_mesh ];
  Alcotest.(check bool) "an abort ramp does change the QA policy" false
    (is_always
       (Fault_plan.abort_policy kitchen_sink ~target:Fault_plan.Qa
          ~base:Tbwf_registers.Abort_policy.Always))

let mp_substrate =
  Tbwf_system.System.Message_passing Tbwf_net.Net.default_config

(* The message-passing axis end-to-end: the client-cut campaign over the
   ABD substrate. The paper system must hold its verdict with the cut
   client exempted by emergent untimeliness (it cannot reach a live
   replica majority, so no guarantee is in force for it) while every
   mainland client keeps the timely+quorate guarantee. *)
let test_campaign_mp_smoke () =
  match Campaign.find "net-client-cut" with
  | None -> Alcotest.fail "net-client-cut campaign missing"
  | Some c ->
    let n, horizon = Campaign.dimensions ~quick:true in
    let plan = Campaign.plan c ~n ~horizon in
    let r =
      Campaign.run_plan ~substrate:mp_substrate ~plan
        ~system:Campaign.Tbwf_atomic ()
    in
    let v = r.Campaign.rr_verdict in
    Alcotest.(check bool) "tbwf-atomic holds over message passing" true
      v.Tbwf_check.Degradation.holds;
    List.iter
      (fun dv ->
        let open Tbwf_check.Degradation in
        match dv.dv_pid with
        | 1 ->
          Alcotest.(check (option bool)) "cut client not quorate"
            (Some false) dv.dv_quorate;
          Alcotest.(check bool) "and therefore exempt" false
            dv.dv_predicted_timely
        | 0 -> ()
        | _ ->
          Alcotest.(check (option bool))
            (Fmt.str "client %d quorate" dv.dv_pid)
            (Some true) dv.dv_quorate)
      v.Tbwf_check.Degradation.processes

(* A campaign cell as [Campaign.run_plan] builds it, except that the
   build tees a recorder ([System.build]'s default), which [Cell_runner.run]
   keeps, so the post-hoc checker has its input. *)
let traced_cell ?substrate ~plan system =
  let substrate, plan = Campaign.align_substrate ?substrate plan in
  Cell_runner.run ~plan ~stream:None ~build:(fun ~qa_policy ~mesh_policy ->
      Tbwf_system.System.build ~substrate ~seed:Campaign.default_seed
        ~qa_policy ~mesh_policy ~telemetry:true ~n:(Fault_plan.n plan) system)

let post_hoc_verdict cell =
  let stack = cell.Cell_runner.cr_stack in
  Tbwf_check.Degradation.check ~min_ops:cell.Cell_runner.cr_min_ops
    ~prediction:cell.Cell_runner.cr_prediction
    ~trace:(Option.get stack.Tbwf_system.System.trace)
    ~completed_before:cell.Cell_runner.cr_completed_before
    ~completed_after:stack.Tbwf_system.System.stats.Tbwf_core.Workload.completed
    ()

(* Every (campaign, system) cell of the quick matrix on [substrate], in
   [Campaign.run_matrix]'s order, with a printable label. *)
let quick_matrix_cells ?substrate label =
  let n, horizon = Campaign.substrate_dimensions ?substrate ~quick:true () in
  let campaigns =
    match substrate with
    | None -> Campaign.catalogue
    | Some _ -> Campaign.catalogue @ Campaign.net_catalogue
  in
  List.concat_map
    (fun c ->
      List.map
        (fun system ->
          ( Fmt.str "%s/%s/%s" label (Campaign.name c)
              (Campaign.system_name system),
            Campaign.plan c ~n ~horizon,
            system ))
        Campaign.all_systems)
    campaigns

(* The online ≡ post-hoc differential: the online checker consumed the
   very same event stream the run produced, so its verdict must equal the
   post-hoc checker's over the recorded trace, field for field, on every
   (campaign, system) cell of the quick matrix on both substrates.
   Structural equality covers the whole verdict record including
   per-process sub-verdicts. Each task returns only the two verdicts, so
   no cell's trace outlives its task. *)
let test_online_differential () =
  let pool = Tbwf_parallel.Pool.create () in
  let check_matrix ?substrate label =
    let cells = Array.of_list (quick_matrix_cells ?substrate label) in
    Tbwf_parallel.Pool.map pool cells (fun (_, plan, system) ->
        let cell = traced_cell ?substrate ~plan system in
        cell.Cell_runner.cr_verdict, post_hoc_verdict cell)
    |> Array.iteri (fun i (online, post_hoc) ->
           let name, _, _ = cells.(i) in
           Alcotest.(check bool) (name ^ " online = post-hoc") true
             (online = post_hoc))
  in
  check_matrix "shared-memory";
  check_matrix ~substrate:mp_substrate "message-passing"

(* The cell of [traced_cell] run with its recorder as the only sink: no
   collector, no online checker, no [Cell_runner]; the same plan-compiled
   abort policies, crashes, policy and horizon. *)
let recorder_alone_fingerprint ?substrate ~plan system =
  let substrate, plan = Campaign.align_substrate ?substrate plan in
  let policy target =
    Fault_plan.abort_policy plan ~target
      ~base:Tbwf_registers.Abort_policy.Always
  in
  let stack =
    Tbwf_system.System.build ~substrate ~seed:Campaign.default_seed
      ~qa_policy:(policy Fault_plan.Qa)
      ~mesh_policy:(policy Fault_plan.Omega_mesh) ~n:(Fault_plan.n plan)
      system
  in
  let rt = stack.Tbwf_system.System.rt in
  Fault_plan.install_crashes plan rt;
  Runtime.run rt ~policy:(Fault_plan.policy plan)
    ~steps:(Fault_plan.horizon plan);
  Runtime.stop rt;
  Trace.fingerprint (Option.get stack.Tbwf_system.System.trace)

(* Recording the trace only observes the run: a campaign cell judged
   without one ([Campaign.run_plan]) reports the same verdict, tail
   counts and telemetry as the same cell with the trace recorded, on
   every system, for one campaign per substrate. And the recording
   composes: [Cell_runner.run] tees its online checker onto the sink the
   build installed, so the build's recorder, teed there with the
   collector, records the same trace as a recorder watching the cell
   alone. *)
let test_trace_observation_only () =
  let pool = Tbwf_parallel.Pool.create () in
  let check_campaign ?substrate name =
    let c = Option.get (Campaign.find name) in
    let n, horizon = Campaign.substrate_dimensions ?substrate ~quick:true () in
    let plan = Campaign.plan c ~n ~horizon in
    Tbwf_parallel.Pool.map pool (Array.of_list Campaign.all_systems)
      (fun system ->
        let r = Campaign.run_plan ?substrate ~plan ~system () in
        let cell = traced_cell ?substrate ~plan system in
        let teed =
          Option.get cell.Cell_runner.cr_stack.Tbwf_system.System.trace
        in
        ( system,
          ( r.Campaign.rr_verdict = cell.Cell_runner.cr_verdict,
            r.Campaign.rr_tail_ops = cell.Cell_runner.cr_tail_ops,
            String.equal
              (Tbwf_telemetry.Collector.snapshot_string
                 r.Campaign.rr_telemetry)
              (Tbwf_telemetry.Collector.snapshot_string
                 cell.Cell_runner.cr_telemetry),
            String.equal (Trace.fingerprint teed)
              (recorder_alone_fingerprint ?substrate ~plan system) ) ))
    |> Array.iter (fun (system, (verdict, tail_ops, snapshot, trace)) ->
           let what = Fmt.str "%s/%s" name (Campaign.system_name system) in
           Alcotest.(check bool) (what ^ " verdict") true verdict;
           Alcotest.(check bool) (what ^ " tail ops") true tail_ops;
           Alcotest.(check bool) (what ^ " telemetry snapshot") true snapshot;
           Alcotest.(check bool) (what ^ " teed recorder = recorder alone")
             true trace)
  in
  check_campaign "slowdown";
  check_campaign ~substrate:mp_substrate "net-partition-heal"

(* The fuzz demo: the planted bug needs both fuzz dimensions (a plan with
   an abort ramp AND a schedule that runs the writer), the shrunk plan
   still fails, and it replays byte-identically from its serialization. *)
let test_fuzz_demo () =
  let outcome = Plan_fuzz.demo ~seed:0xF001L ~runs:200 ~horizon:400 () in
  match outcome.Tbwf_check.Explore.plan_counterexample with
  | None -> Alcotest.fail "fuzz did not find the planted bug"
  | Some (pids, plan) ->
    let held, fp = Plan_fuzz.demo_replay plan pids in
    Alcotest.(check bool) "shrunk counterexample still violates" false held;
    (match Fault_plan.of_string (Fault_plan.to_string plan) with
    | Error msg -> Alcotest.failf "shrunk plan failed to parse: %s" msg
    | Ok plan' ->
      let held', fp' = Plan_fuzz.demo_replay plan' pids in
      Alcotest.(check bool) "parsed plan violates too" false held';
      Alcotest.(check string) "byte-identical replay" fp fp')

let () =
  Alcotest.run "nemesis"
    [
      ( "fault plans",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "comments and blanks" `Quick
            test_comments_and_blanks;
          Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
          Alcotest.test_case "prediction" `Quick test_prediction;
          QCheck_alcotest.to_alcotest qcheck_gen_round_trip;
        ] );
      ( "fault plans v2",
        [
          Alcotest.test_case "net kitchen sink round trip" `Quick
            test_v2_round_trip;
          Alcotest.test_case "v1 header byte-stable" `Quick
            test_v1_header_stable;
          Alcotest.test_case "unknown kinds: v2 keeps, v1 rejects" `Quick
            test_unknown_kind_versioned;
          Alcotest.test_case "emergent timeliness prediction" `Quick
            test_emergent_prediction;
          Alcotest.test_case "shrink preserves unknown atoms" `Quick
            test_shrink_preserves_unknown_atoms;
          QCheck_alcotest.to_alcotest qcheck_gen_v2_round_trip;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest qcheck_deterministic_replay;
          QCheck_alcotest.to_alcotest qcheck_serialized_plan_replays;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "catalogue covers every atom" `Quick
            test_catalogue_covers_every_atom;
          Alcotest.test_case "policies default without abort atoms" `Quick
            test_policies_default_without_abort_atoms;
          Alcotest.test_case "slowdown separates systems" `Slow
            test_campaign_smoke;
          Alcotest.test_case "client cut over message passing" `Slow
            test_campaign_mp_smoke;
          Alcotest.test_case "online verdicts equal post-hoc (both substrates)"
            `Slow test_online_differential;
          Alcotest.test_case "trace recording is observation-only" `Slow
            test_trace_observation_only;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "planted bug found and replayed" `Quick
            test_fuzz_demo ] );
    ]
