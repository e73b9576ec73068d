open Tbwf_sim
open Tbwf_monitor

let status = Alcotest.testable Activity_monitor.pp_status Activity_monitor.equal_status

(* Run one monitor scenario and return the final status/faultCntr plus
   mid-run fault counter for boundedness checks. *)
let run_monitor ?(seed = 5L) ?(steps = 60_000) ~setup ~schedule () =
  let rt = Runtime.create ~seed ~n:2 () in
  let mon = Activity_monitor.install rt ~p:0 ~q:1 in
  setup rt mon;
  let policy = schedule () in
  Runtime.run rt ~policy ~steps:(steps / 2);
  let mid_faults = !(mon.Activity_monitor.fault_cntr) in
  Runtime.run rt ~policy ~steps:(steps / 2);
  Runtime.stop rt;
  mon, mid_faults

let round_robin () = Policy.round_robin ()

let untimely_q () =
  Policy.of_patterns
    [ 0, Policy.Every { period = 2; offset = 0 };
      1, Policy.Flicker { active = 100; sleep = 300; growth = 1.5 } ]

let both_on rt mon =
  ignore rt;
  mon.Activity_monitor.monitoring := true;
  mon.Activity_monitor.active_for := true

let test_initial_outputs () =
  let rt = Runtime.create ~n:2 () in
  let mon = Activity_monitor.install rt ~p:0 ~q:1 in
  Alcotest.check status "initial status" Activity_monitor.Unknown
    !(mon.Activity_monitor.status);
  Alcotest.(check int) "initial faults" 0 !(mon.Activity_monitor.fault_cntr)

let test_rejects_self_monitoring () =
  let rt = Runtime.create ~n:2 () in
  Alcotest.(check bool) "p = q rejected" true
    (try
       ignore (Activity_monitor.install rt ~p:1 ~q:1);
       false
     with Invalid_argument _ -> true)

let test_not_monitoring_stays_unknown () =
  let mon, _ =
    run_monitor ~steps:10_000
      ~setup:(fun _ mon -> mon.Activity_monitor.active_for := true)
      ~schedule:round_robin ()
  in
  Alcotest.check status "status stays ?" Activity_monitor.Unknown
    !(mon.Activity_monitor.status)

let test_active_timely_q_seen_active () =
  let mon, _ = run_monitor ~setup:both_on ~schedule:round_robin () in
  Alcotest.check status "active" Activity_monitor.Active
    !(mon.Activity_monitor.status);
  Alcotest.(check int) "no faults for timely q" 0
    !(mon.Activity_monitor.fault_cntr)

let test_willing_stop_seen_inactive_without_new_faults () =
  let mon, _ =
    run_monitor
      ~setup:(fun rt mon ->
        both_on rt mon;
        Runtime.spawn rt ~pid:1 ~name:"stopper" (fun () ->
            for _ = 1 to 500 do
              Runtime.yield ()
            done;
            mon.Activity_monitor.active_for := false))
      ~schedule:round_robin ()
  in
  Alcotest.check status "inactive after willing stop" Activity_monitor.Inactive
    !(mon.Activity_monitor.status);
  (* At most one spurious fault from catching the stop mid-handshake. *)
  Alcotest.(check bool) "faults bounded by 1" true
    (!(mon.Activity_monitor.fault_cntr) <= 1)

let test_crash_seen_inactive_bounded_faults () =
  let mon, _ =
    run_monitor
      ~setup:(fun rt mon ->
        both_on rt mon;
        Runtime.crash_at rt ~pid:1 ~step:5_000)
      ~schedule:round_robin ()
  in
  Alcotest.check status "inactive after crash" Activity_monitor.Inactive
    !(mon.Activity_monitor.status);
  (* Condition (b) of the increment rule: the register stops increasing, so
     at most one fault is charged after the crash. *)
  Alcotest.(check bool) "faults bounded" true
    (!(mon.Activity_monitor.fault_cntr) <= 1)

let test_untimely_q_faults_grow () =
  let mon, mid_faults =
    run_monitor ~steps:120_000 ~setup:both_on ~schedule:untimely_q ()
  in
  Alcotest.(check bool) "faults keep growing (property 6)" true
    (!(mon.Activity_monitor.fault_cntr) > mid_faults);
  Alcotest.(check bool) "multiple faults" true
    (!(mon.Activity_monitor.fault_cntr) >= 3)

let test_monitoring_off_resets_to_unknown () =
  let mon, _ =
    run_monitor
      ~setup:(fun rt mon ->
        both_on rt mon;
        Runtime.spawn rt ~pid:0 ~name:"switch-off" (fun () ->
            for _ = 1 to 500 do
              Runtime.yield ()
            done;
            mon.Activity_monitor.monitoring := false))
      ~schedule:round_robin ()
  in
  Alcotest.check status "back to ?" Activity_monitor.Unknown
    !(mon.Activity_monitor.status)

let test_monitor_restart () =
  (* Turn monitoring off and on again: the monitor must resume and converge
     back to active. *)
  let mon, _ =
    run_monitor
      ~setup:(fun rt mon ->
        both_on rt mon;
        Runtime.spawn rt ~pid:0 ~name:"cycle" (fun () ->
            for _ = 1 to 300 do
              Runtime.yield ()
            done;
            mon.Activity_monitor.monitoring := false;
            for _ = 1 to 300 do
              Runtime.yield ()
            done;
            mon.Activity_monitor.monitoring := true))
      ~schedule:round_robin ()
  in
  Alcotest.check status "active again after restart" Activity_monitor.Active
    !(mon.Activity_monitor.status)

let test_sample_helpers () =
  let samples =
    [
      { Activity_monitor.at_step = 0; status_now = Activity_monitor.Active; fault_cntr_now = 1 };
      { Activity_monitor.at_step = 1; status_now = Activity_monitor.Active; fault_cntr_now = 2 };
      { Activity_monitor.at_step = 2; status_now = Activity_monitor.Active; fault_cntr_now = 2 };
      { Activity_monitor.at_step = 3; status_now = Activity_monitor.Active; fault_cntr_now = 2 };
    ]
  in
  Alcotest.(check bool) "bounded on suffix" true
    (Activity_monitor.fault_cntr_bounded samples ~suffix:3);
  Alcotest.(check bool) "not bounded over whole run" false
    (Activity_monitor.fault_cntr_bounded samples ~suffix:4);
  Alcotest.(check bool) "unbounded over whole run" true
    (Activity_monitor.fault_cntr_unbounded samples ~suffix:4);
  Alcotest.(check bool) "status check" true
    (Activity_monitor.check_status_eventually samples
       ~expect:(fun s -> Activity_monitor.equal_status s Activity_monitor.Active)
       ~suffix:2)

let test_doubling_adaptation_trusts_slowing_q () =
  (* With adapt = doubling, a geometrically decelerating q is eventually
     trusted forever (finite faults); with the paper's +1 it keeps being
     suspected. This is the mechanism behind baseline E2. *)
  let run_with adapt =
    let rt = Runtime.create ~seed:9L ~n:2 () in
    let mon = Activity_monitor.install ?adapt rt ~p:0 ~q:1 in
    mon.Activity_monitor.monitoring := true;
    mon.Activity_monitor.active_for := true;
    let policy =
      Policy.of_patterns
        [ 0, Policy.Every { period = 2; offset = 0 };
          1, Policy.Slowing { initial_gap = 20; growth = 1.1; burst = 8 } ]
    in
    Runtime.run rt ~policy ~steps:400_000;
    Runtime.stop rt;
    !(mon.Activity_monitor.fault_cntr)
  in
  let doubling = run_with (Some (fun t -> 2 * t)) in
  let linear = run_with None in
  Alcotest.(check bool)
    (Fmt.str "+1 keeps suspecting (%d) more than doubling (%d)" linear doubling)
    true
    (linear > doubling)


(* --- the one form ------------------------------------------------------------

   Figure 2 runs as two step machines on both substrates. Each case pins a
   run's digest: the trace fingerprint, every monitor's final outputs and
   every suspicion flip with its step. The digests were captured while a
   fiber form, written line by line from Figure 2, still existed and agreed
   with the machines on every one of these runs. *)

(* The form of every Figure 2 task spawned on pids [0, n). *)
let monitor_task_forms rt ~n =
  List.concat_map
    (fun pid ->
      List.filter_map
        (fun (name, form) ->
          if String.starts_with ~prefix:"amon-" name then Some form else None)
        (Runtime.task_forms rt ~pid))
    (List.init n Fun.id)

(* What a run shows: its digest, and the outputs the sanity checks read. *)
type observed = {
  digest : string;
  outputs : ((int * int) * (string * int)) list;
      (* (p, q), (status, fault_cntr) *)
  flips : ((int * int) * (int * bool)) list;  (* (step, p), (q, suspected) *)
}

let observe ~seed ~n ~policy ~crashes ~steps install =
  let rt = Runtime.create ~seed ~n () in
  let trace = Trace.create () in
  let flips = ref [] in
  Runtime.set_sink rt
    (Sink.tee (Trace.recorder trace)
       {
         Sink.nil with
         Sink.active = true;
         on_signal =
           (fun ~step ~pid signal ->
             match signal with
             | Sink.Suspicion_flip { watched; suspected } ->
               flips := ((step, pid), (watched, suspected)) :: !flips
             | _ -> ());
       });
  let monitors = install rt in
  Alcotest.(check bool) "every monitor task is a machine" true
    (List.for_all (fun f -> f = Runtime.Machine) (monitor_task_forms rt ~n));
  List.iter (fun (pid, step) -> Runtime.crash_at rt ~pid ~step) crashes;
  Runtime.run rt ~policy:(policy ()) ~steps;
  Runtime.stop rt;
  let outputs =
    List.map
      (fun (m : Activity_monitor.t) ->
        ( (m.p, m.q),
          (Fmt.str "%a" Activity_monitor.pp_status !(m.status), !(m.fault_cntr))
        ))
      monitors
  and flips = List.rev !flips in
  let shown =
    Fmt.str "%s@.%a@.%a" (Trace.fingerprint trace)
      Fmt.(list ~sep:sp (fun ppf ((p, q), (s, f)) -> pf ppf "%d,%d:%s,%d" p q s f))
      outputs
      Fmt.(list ~sep:sp (fun ppf ((step, p), (q, s)) -> pf ppf "%d,%d:%d,%b" step p q s))
      flips
  in
  { digest = Digest.to_hex (Digest.string shown); outputs; flips }

(* A full mesh of bare monitors with both inputs on, plus one task per
   process that switches its inputs off and on again on a fixed rhythm, so
   both machines keep leaving and re-entering their waits. *)
let mesh ?adapt ?increment_guards ~n rt =
  let monitors =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun q ->
            if p = q then None
            else
              Some (Activity_monitor.install ?adapt ?increment_guards rt ~p ~q))
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  List.iter
    (fun (m : Activity_monitor.t) ->
      m.monitoring := true;
      m.active_for := true)
    monitors;
  for pid = 0 to n - 1 do
    Runtime.spawn rt ~pid ~name:(Fmt.str "toggle[%d]" pid) (fun () ->
        let i = ref 0 in
        while true do
          Runtime.yield ();
          incr i;
          List.iter
            (fun (m : Activity_monitor.t) ->
              if m.p = pid && !i mod (97 + (13 * pid)) = 0 then
                m.monitoring := not !(m.monitoring);
              if m.q = pid && !i mod (151 + (7 * pid)) = 0 then
                m.active_for := not !(m.active_for))
            monitors
        done)
  done;
  monitors

let rotation_with_slow_switch ~n () =
  Tbwf_nemesis.Fault_plan.policy
    (Tbwf_nemesis.Fault_plan.make ~n ~horizon:30_000
       [ Tbwf_nemesis.Fault_plan.Slow
           { pid = 1; at = 6_000; gap = 12; growth = 1.3 } ])

(* Each case runs round robin and the rotation, and must reproduce both
   digests; the slowed process must cost some monitor a fault there, or
   the digest pins little. *)
let check_case ?(n = 3) ?(crashes = []) ~goldens:(rr_golden, slowed_golden)
    install =
  let run policy =
    observe ~seed:11L ~n ~crashes ~steps:30_000 ~policy install
  in
  let rr = run round_robin in
  let slowed = run (rotation_with_slow_switch ~n) in
  Alcotest.(check string) "round robin digest" rr_golden rr.digest;
  Alcotest.(check string) "rotation digest" slowed_golden slowed.digest;
  Alcotest.(check bool) "round robin flipped a monitor" true (rr.flips <> []);
  Alcotest.(check bool) "the slowed process was charged a fault" true
    (List.exists (fun ((_, q), (_, f)) -> q = 1 && f > 0) slowed.outputs)

let test_golden_default () =
  check_case
    ~goldens:
      ("9131ab315a255669c3af30c12ccf81e8", "e1f651b00c7ee48a6f2384b3b6637d8c")
    (fun rt -> mesh ~n:3 rt)

let test_golden_without_increment_guards () =
  check_case
    ~goldens:
      ("2d637899ee24880cd5ebd824767bbbe3", "d3e0b35d2a4a3021ffa0aab1b726ac70")
    (fun rt -> mesh ~increment_guards:false ~n:3 rt)

let all_monitors meshes =
  List.filter_map Fun.id (List.concat_map Array.to_list (Array.to_list meshes))

let test_golden_doubling_adapt () =
  check_case
    ~goldens:
      ("9131ab315a255669c3af30c12ccf81e8", "70acbd9e1c305ea0e3c2ac7474a89091")
    (fun rt -> mesh ~adapt:(fun t -> 2 * t) ~n:3 rt);
  (* The booster itself, whose monitors double their timeouts. *)
  check_case ~n:4
    ~goldens:
      ("db05a51bf43d813a0ddfc83ff95c70a2", "f04b08af8d467366cd59177db361ae11")
    (fun rt ->
      let t = Tbwf_core.Baselines.Naive_booster.install rt in
      Array.iter
        (fun (h : Tbwf_omega.Omega_spec.handle) -> h.candidate := true)
        t.Tbwf_core.Baselines.Naive_booster.handles;
      all_monitors t.Tbwf_core.Baselines.Naive_booster.monitors)

let test_golden_crash_while_beating () =
  (* Crashes at odd and even steps, so q dies both with a heartbeat write in
     flight and between writes. *)
  List.iter
    (fun (crashes, goldens) ->
      check_case ~crashes ~goldens (fun rt -> mesh ~n:3 rt))
    [
      ( [ 2, 2_001 ],
        ("81b5039b0180bf83cca93420bd3c2896", "3f27bf571b6c1a7d80405ddc65e920d5")
      );
      ( [ 2, 4_000 ],
        ("8bc4a505720f7fd361c62c6b44bc6beb", "0cc8d8cb553284b60ae185cce5572497")
      );
      ( [ 2, 777; 0, 9_000 ],
        ("aec9ff5696f86289e8f33638a148069f", "ecc3a42be6b1ce38a37193755e48e6a6")
      );
    ]

let test_golden_figure3_stack () =
  (* Figure 3 on top: its tasks switch the monitors' inputs themselves. *)
  check_case ~n:4 ~crashes:[ 3, 12_000 ]
    ~goldens:
      ("48649b60dc6992b1f2e3d4ccb6aabc6d", "19d57391fd2741653063f4d673807182")
    (fun rt ->
      let t = Tbwf_omega.Omega_registers.install rt in
      Array.iter
        (fun (h : Tbwf_omega.Omega_spec.handle) -> h.candidate := true)
        t.Tbwf_omega.Omega_registers.handles;
      all_monitors t.Tbwf_omega.Omega_registers.monitors)

let test_substrate_picks_form () =
  let open Tbwf_system in
  let forms substrate id =
    let stack = System.build ~substrate ~n:3 id in
    let forms = monitor_task_forms stack.System.rt ~n:3 in
    Runtime.stop stack.System.rt;
    forms
  in
  let mp = System.Message_passing Tbwf_net.Net.default_config in
  List.iter
    (fun id ->
      List.iter
        (fun substrate ->
          let forms = forms substrate id in
          let name = System.substrate_name substrate in
          Alcotest.(check int) (name ^ ": 2n(n-1) monitor tasks") 12
            (List.length forms);
          Alcotest.(check bool) (name ^ ": all machines") true
            (List.for_all (fun f -> f = Runtime.Machine) forms))
        [ System.Shared_memory; mp ])
    [ System.Tbwf_atomic; System.Naive_booster ]

let () =
  Alcotest.run "monitor"
    [
      ( "unit",
        [
          Alcotest.test_case "initial outputs" `Quick test_initial_outputs;
          Alcotest.test_case "rejects self-monitoring" `Quick
            test_rejects_self_monitoring;
          Alcotest.test_case "not monitoring stays ?" `Quick
            test_not_monitoring_stays_unknown;
          Alcotest.test_case "active timely q" `Quick
            test_active_timely_q_seen_active;
          Alcotest.test_case "willing stop" `Quick
            test_willing_stop_seen_inactive_without_new_faults;
          Alcotest.test_case "crash" `Quick test_crash_seen_inactive_bounded_faults;
          Alcotest.test_case "untimely q faults grow" `Slow
            test_untimely_q_faults_grow;
          Alcotest.test_case "monitoring off resets" `Quick
            test_monitoring_off_resets_to_unknown;
          Alcotest.test_case "monitor restart" `Quick test_monitor_restart;
          Alcotest.test_case "sample helpers" `Quick test_sample_helpers;
          Alcotest.test_case "doubling vs +1 adaptation" `Slow
            test_doubling_adaptation_trusts_slowing_q;
        ] );
      ( "forms",
        [
          Alcotest.test_case "default mesh golden" `Quick test_golden_default;
          Alcotest.test_case "without increment guards" `Quick
            test_golden_without_increment_guards;
          Alcotest.test_case "doubling adapt and the booster" `Quick
            test_golden_doubling_adapt;
          Alcotest.test_case "q crashes while beating" `Quick
            test_golden_crash_while_beating;
          Alcotest.test_case "under Figure 3" `Quick test_golden_figure3_stack;
          Alcotest.test_case "substrate picks the form" `Quick
            test_substrate_picks_form;
        ] );
    ]
