(* End-to-end checks of the experiment suite in quick mode: every table's
   internal pass-flags must hold, so `dune runtest` guards the claims that
   EXPERIMENTS.md records. *)

open Tbwf_experiments

let test_e1 () =
  let r = E1_degradation.compute ~quick:true () in
  Alcotest.(check int) "one row per k" (r.E1_degradation.n + 1)
    (List.length r.E1_degradation.rows);
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Fmt.str "TBWF holds at k=%d" row.E1_degradation.k)
        true row.E1_degradation.tbwf_holds;
      Alcotest.(check bool)
        (Fmt.str "lock-freedom at k=%d" row.E1_degradation.k)
        true row.E1_degradation.lock_free;
      if row.E1_degradation.k > 0 then
        Alcotest.(check bool)
          (Fmt.str "timely progress at k=%d" row.E1_degradation.k)
          true
          (row.E1_degradation.timely_min > 0))
    r.E1_degradation.rows

let test_e2 () =
  let r = E2_baselines.compute ~quick:true () in
  match r.E2_baselines.rows with
  | [ tbwf; naive; retry ] ->
    Alcotest.(check bool) "TBWF total beats naive" true
      (tbwf.E2_baselines.timely_total > naive.E2_baselines.timely_total);
    Alcotest.(check bool) "TBWF does not decay" true
      (tbwf.E2_baselines.last_segment * 2 >= tbwf.E2_baselines.first_segment);
    Alcotest.(check bool) "naive decays" true
      (naive.E2_baselines.last_segment < naive.E2_baselines.first_segment);
    Alcotest.(check int) "retry livelocked" 0 retry.E2_baselines.timely_total
  | _ -> Alcotest.fail "expected three systems"

let test_e3 () =
  let r = E3_obstruction.compute ~quick:true () in
  Alcotest.(check bool) "all solo suffixes progress" true
    r.E3_obstruction.all_pass

let test_e4 () =
  let r = E4_omega_atomic.compute ~quick:true () in
  Alcotest.(check bool) "all election checks pass" true r.E4_omega_atomic.all_pass

let test_e5 () =
  let r = E5_omega_abortable.compute ~quick:true () in
  Alcotest.(check bool) "abortable election checks pass" true
    r.E5_omega_abortable.all_pass;
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Fmt.str "measured abort hostility for %s" b.E5_omega_abortable.policy_name)
        true
        (b.E5_omega_abortable.abort_rate > 0.5))
    r.E5_omega_abortable.blocks

let test_e6 () =
  let r = E6_monitor_matrix.compute ~quick:true () in
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Fmt.str "%s / %s" row.E6_monitor_matrix.property
           row.E6_monitor_matrix.scenario)
        true row.E6_monitor_matrix.pass)
    r.E6_monitor_matrix.rows

let test_e7 () =
  let r = E7_write_efficiency.compute ~quick:true () in
  Alcotest.(check bool) "final writers within {leader} ∪ R" true
    r.E7_write_efficiency.final_writers_ok;
  (match r.E7_write_efficiency.windows with
  | first :: _ ->
    Alcotest.(check bool) "initially several writers" true
      (List.length first.E7_write_efficiency.writers > 1)
  | [] -> Alcotest.fail "no windows")

let test_e8 () =
  let r = E8_canonical.compute ~quick:true () in
  Alcotest.(check bool) "canonical fairer" true r.E8_canonical.canonical_fairer;
  (match r.E8_canonical.rows with
  | [ canonical; non_canonical ] ->
    Alcotest.(check bool) "canonical reasonably fair" true
      (canonical.E8_canonical.fairness > 0.5);
    Alcotest.(check bool) "non-canonical monopolized" true
      (non_canonical.E8_canonical.fairness < 0.1)
  | _ -> Alcotest.fail "expected two variants")

let test_e9 () =
  let r = E9_flicker.compute ~quick:true () in
  Alcotest.(check bool) "flicker resilience" true r.E9_flicker.all_pass

let test_e11 () =
  let r = E11_ablations.compute ~quick:true () in
  Alcotest.(check bool)
    "paper variants healthy, ablated variants exhibit their failures" true
    r.E11_ablations.ablations_all_fail

let test_e12 () =
  let r = E12_routes.compute ~quick:true () in
  Alcotest.(check bool)
    "timely victim starves under CAS routes but progresses under TBWF" true
    r.E12_routes.tbwf_protects_victim

let test_e13 () =
  let r = E13_detectors.compute ~quick:true () in
  Alcotest.(check bool) "◊P accuracy fails forever" true
    r.E13_detectors.dp_never_stabilizes;
  Alcotest.(check bool) "◊P completeness holds" true r.E13_detectors.dp_complete;
  Alcotest.(check bool) "Ω∆ stabilizes in the same run" true
    r.E13_detectors.omega_stabilizes

let test_e14 () =
  let r = E14_gst.compute ~quick:true () in
  Alcotest.(check bool) "steady progress after GST" true
    r.E14_gst.steady_after_gst

let test_e15 () =
  let r = E15_exploration.compute ~quick:true () in
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Fmt.str "%s: explorers agree" row.E15_exploration.scenario)
        true row.E15_exploration.agree)
    r.E15_exploration.rows;
  Alcotest.(check bool) "POR >=10x overall" true
    (E15_exploration.coverage_reduction r >= 10.0);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Fmt.str "%s: fuzzer found the bug" f.E15_exploration.f_scenario)
        true f.E15_exploration.found;
      Alcotest.(check bool)
        (Fmt.str "%s: minimal witness replays" f.E15_exploration.f_scenario)
        true f.E15_exploration.minimal_replays)
    r.E15_exploration.fuzz_rows

let test_e16 () =
  let r = E16_nemesis.compute ~quick:true () in
  Alcotest.(check bool) "degradation matrix fully as predicted" true
    r.E16_nemesis.all_ok;
  List.iter
    (fun row ->
      List.iter
        (fun (system, cell) ->
          let expect_holds =
            List.mem system Tbwf_system.System.paper_systems
          in
          Alcotest.(check bool)
            (Fmt.str "%s/%s verdict"
               row.E16_nemesis.campaign
               (Tbwf_system.System.to_string system))
            expect_holds cell.E16_nemesis.holds)
        row.E16_nemesis.cells)
    r.E16_nemesis.rows

let test_e17 () =
  let r = E17_network.compute ~quick:true () in
  Alcotest.(check bool) "network degradation matrix fully as predicted" true
    r.E17_network.all_ok;
  List.iter
    (fun row ->
      List.iter
        (fun (system, cell) ->
          let expect_holds =
            List.mem system Tbwf_system.System.paper_systems
          in
          Alcotest.(check bool)
            (Fmt.str "%s/%s verdict"
               row.E17_network.campaign
               (Tbwf_system.System.to_string system))
            expect_holds cell.E17_network.holds)
        row.E17_network.cells)
    r.E17_network.rows

let test_e18 () =
  let r = E18_stochastic.compute ~quick:true () in
  (* The practically-wait-free gap: the baselines keep a strictly smaller
     share of their stochastic-scheduler throughput under the adversary
     than any TBWF system, with real separation between the
     populations. *)
  Alcotest.(check bool)
    (Fmt.str "retention separates populations (tbwf min %.2f > baseline \
              max %.2f)"
       r.E18_stochastic.tbwf_min_retention
       r.E18_stochastic.baseline_max_retention)
    true
    (r.E18_stochastic.tbwf_min_retention
    > 2.0 *. r.E18_stochastic.baseline_max_retention);
  (* Under the uniform stochastic scheduler everything completes
     operations — including the baselines the campaigns reject. *)
  List.iter
    (fun (system, regimes) ->
      match List.assoc_opt E18_stochastic.Uniform regimes with
      | None -> Alcotest.failf "missing uniform cell"
      | Some c ->
        Alcotest.(check bool)
          (Fmt.str "%s completes under the stochastic scheduler"
             (Tbwf_system.System.to_string system))
          true
          (c.E18_stochastic.completed > 0))
    r.E18_stochastic.cells

let test_registry_complete () =
  Alcotest.(check int) "seventeen experiments registered" 17
    (List.length Registry.all);
  List.iter
    (fun id ->
      Alcotest.(check bool) (Fmt.str "%s findable" id) true
        (Registry.find id <> None))
    [ "E1"; "e1"; "E5"; "E15"; "E16"; "E17"; "E18" ];
  Alcotest.(check bool) "unknown id" true (Registry.find "E99" = None);
  Alcotest.(check bool) "E10 retired" true (Registry.find "E10" = None)

let () =
  Alcotest.run "experiments"
    [
      ( "quick suite",
        [
          Alcotest.test_case "E1 graceful degradation" `Slow test_e1;
          Alcotest.test_case "E2 baselines" `Slow test_e2;
          Alcotest.test_case "E3 obstruction-freedom" `Slow test_e3;
          Alcotest.test_case "E4 omega atomic" `Slow test_e4;
          Alcotest.test_case "E5 omega abortable" `Slow test_e5;
          Alcotest.test_case "E6 monitor matrix" `Slow test_e6;
          Alcotest.test_case "E7 write efficiency" `Slow test_e7;
          Alcotest.test_case "E8 canonical use" `Slow test_e8;
          Alcotest.test_case "E9 flicker resilience" `Slow test_e9;
          Alcotest.test_case "E11 ablations" `Slow test_e11;
          Alcotest.test_case "E12 routes to progress" `Slow test_e12;
          Alcotest.test_case "E13 detectors" `Slow test_e13;
          Alcotest.test_case "E14 GST" `Slow test_e14;
          Alcotest.test_case "E15 exploration" `Slow test_e15;
          Alcotest.test_case "E16 nemesis matrix" `Slow test_e16;
          Alcotest.test_case "E17 network matrix" `Slow test_e17;
          Alcotest.test_case "E18 practically wait-free" `Slow test_e18;
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
        ] );
    ]
