open Tbwf_sim
open Tbwf_registers
open Tbwf_omega

let view = Alcotest.testable Omega_spec.pp_view Omega_spec.equal_view

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

(* --- Omega_spec unit tests ---------------------------------------------- *)

let sample ~at_step views candidacies =
  { Omega_spec.at_step; views = Array.of_list views; candidacies = Array.of_list candidacies }

let stable_samples ell n count =
  List.init count (fun i ->
      sample ~at_step:i
        (List.init n (fun _ -> Omega_spec.Leader ell))
        (List.init n (fun _ -> true)))

let test_check_election_accepts_stable () =
  let samples = stable_samples 1 3 10 in
  let verdict =
    Omega_spec.check_election ~samples ~suffix:5 ~pcandidates:[ 0; 1; 2 ]
      ~rcandidates:[] ~ncandidates:[] ~timely:[ 0; 1; 2 ] ~crashed:[] ()
  in
  Alcotest.(check (option int)) "elected" (Some 1) verdict.Omega_spec.elected;
  Alcotest.(check (list string)) "no violations" [] verdict.Omega_spec.violations

let test_check_election_rejects_untimely_leader () =
  let samples = stable_samples 0 3 10 in
  let verdict =
    Omega_spec.check_election ~samples ~suffix:5 ~pcandidates:[ 0; 1; 2 ]
      ~rcandidates:[] ~ncandidates:[] ~timely:[ 1; 2 ] ~crashed:[] ()
  in
  (* pid 0 stably elects itself but is not timely: 1(a) has no witness. *)
  Alcotest.(check (option int)) "nobody validly elected" None
    verdict.Omega_spec.elected;
  Alcotest.(check bool) "violation reported" true
    (verdict.Omega_spec.violations <> [])

let test_check_election_ncand_must_see_unknown () =
  let views = [ Omega_spec.Leader 1; Omega_spec.Leader 1; Omega_spec.Leader 1 ] in
  let samples = List.init 10 (fun i -> sample ~at_step:i views [ true; true; false ]) in
  let verdict =
    Omega_spec.check_election ~samples ~suffix:5 ~pcandidates:[ 0; 1 ]
      ~rcandidates:[] ~ncandidates:[ 2 ] ~timely:[ 0; 1; 2 ] ~crashed:[] ()
  in
  Alcotest.(check bool) "property 2 violated" true
    (List.exists
       (fun v -> contains_substring v "property 2")
       verdict.Omega_spec.violations)

let test_check_election_rcand_may_see_unknown () =
  let mixed i =
    sample ~at_step:i
      [
        Omega_spec.Leader 0;
        (if i mod 2 = 0 then Omega_spec.No_leader else Omega_spec.Leader 0);
      ]
      [ true; i mod 2 = 1 ]
  in
  let samples = List.init 10 mixed in
  let verdict =
    Omega_spec.check_election ~samples ~suffix:5 ~pcandidates:[ 0 ]
      ~rcandidates:[ 1 ] ~ncandidates:[] ~timely:[ 0; 1 ] ~crashed:[] ()
  in
  Alcotest.(check (option int)) "elected 0" (Some 0) verdict.Omega_spec.elected;
  Alcotest.(check (list string)) "rcand flapping between ? and leader is fine"
    [] verdict.Omega_spec.violations

let test_lagging_exemption () =
  (* pid 1 is a non-timely pcandidate with a stale view; without the
     exemption 1(b) fails, with it the verdict is clean. *)
  let samples =
    List.init 10 (fun i ->
        sample ~at_step:i
          [ Omega_spec.Leader 0; Omega_spec.Leader 1 ]
          [ true; true ])
  in
  let strict =
    Omega_spec.check_election ~samples ~suffix:5 ~pcandidates:[ 0; 1 ]
      ~rcandidates:[] ~ncandidates:[] ~timely:[ 0 ] ~crashed:[] ()
  in
  Alcotest.(check bool) "strict check flags stale view" true
    (strict.Omega_spec.violations <> []);
  let lenient =
    Omega_spec.check_election ~samples ~suffix:5 ~pcandidates:[ 0; 1 ]
      ~rcandidates:[] ~ncandidates:[] ~timely:[ 0 ] ~crashed:[] ~lagging:[ 1 ] ()
  in
  Alcotest.(check (list string)) "lagging exempt" [] lenient.Omega_spec.violations

(* --- election end-to-end ------------------------------------------------ *)

let install_omega ~kind rt =
  match kind with
  | `Atomic -> (Omega_registers.install rt).Omega_registers.handles
  | `Abortable ->
    (Omega_abortable.install rt ~policy:Abort_policy.Always ()).Omega_abortable.handles

let elect_all_timely kind () =
  let n = 3 in
  let rt = Runtime.create ~seed:8L ~n () in
  let handles = install_omega ~kind rt in
  for pid = 0 to n - 1 do
    Runtime.spawn rt ~pid ~name:"cand" (fun () ->
        handles.(pid).Omega_spec.candidate := true)
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:60_000;
  Runtime.stop rt;
  (* All views must agree on one leader who sees itself. *)
  let leader_of h = !(h.Omega_spec.leader) in
  (match leader_of handles.(0) with
  | Omega_spec.Leader ell ->
    Array.iter
      (fun h -> Alcotest.check view "agreement" (Omega_spec.Leader ell) (leader_of h))
      handles
  | Omega_spec.No_leader -> Alcotest.fail "no leader elected")

let elect_past_crashed kind () =
  let n = 3 in
  let rt = Runtime.create ~seed:12L ~n () in
  let handles = install_omega ~kind rt in
  for pid = 0 to n - 1 do
    Runtime.spawn rt ~pid ~name:"cand" (fun () ->
        handles.(pid).Omega_spec.candidate := true)
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:40_000;
  (* Crash whoever currently leads; a new leader must emerge. *)
  let old_leader =
    match !(handles.(1).Omega_spec.leader) with
    | Omega_spec.Leader l -> l
    | Omega_spec.No_leader -> 0
  in
  Runtime.crash_at rt ~pid:old_leader ~step:(Runtime.now rt);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:120_000;
  Runtime.stop rt;
  let survivor = if old_leader = 0 then 1 else 0 in
  (match !(handles.(survivor).Omega_spec.leader) with
  | Omega_spec.Leader l ->
    Alcotest.(check bool) "new leader is alive" true (l <> old_leader)
  | Omega_spec.No_leader -> Alcotest.fail "no leader after crash")

let test_canonical_join_waits () =
  let rt = Runtime.create ~n:2 () in
  let handle = Omega_spec.make_handle ~pid:0 in
  handle.Omega_spec.leader := Omega_spec.Leader 0;
  let joined = ref false in
  Runtime.spawn rt ~pid:0 ~name:"joiner" (fun () ->
      Omega_spec.canonical_join handle;
      joined := true);
  Runtime.spawn rt ~pid:1 ~name:"releaser" (fun () ->
      for _ = 1 to 20 do
        Runtime.yield ()
      done;
      handle.Omega_spec.leader := Omega_spec.No_leader);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  Alcotest.(check bool) "still waiting while leader=self" false !joined;
  Alcotest.(check bool) "not yet candidate" false !(handle.Omega_spec.candidate);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check bool) "joined after leadership released" true !joined;
  Alcotest.(check bool) "candidate now" true !(handle.Omega_spec.candidate);
  Runtime.stop rt

(* --- abortable communication building blocks ---------------------------- *)

let test_msg_channel_delivers_final_value () =
  let rt = Runtime.create ~seed:4L ~n:2 () in
  let registers = Msg_channel.registers rt ~policy:Abort_policy.Always ~n:2 () in
  let sender = Msg_channel.create ~me:0 ~registers in
  let receiver = Msg_channel.create ~me:1 ~registers in
  let payload = 42, 7 in
  Runtime.spawn rt ~pid:0 ~name:"sender" (fun () ->
      let msg_to = [| (0, 0); payload |] in
      while true do
        let (_ : bool array) = Msg_channel.write_msgs sender msg_to in
        Runtime.yield ()
      done);
  let received = ref (0, 0) in
  Runtime.spawn rt ~pid:1 ~name:"receiver" (fun () ->
      while true do
        let from = Msg_channel.read_msgs receiver in
        received := from.(0);
        Runtime.yield ()
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:30_000;
  Runtime.stop rt;
  Alcotest.(check (pair int int))
    "final value delivered despite always-abort-on-overlap" payload !received

let test_heartbeat_detects_timely_writer () =
  let rt = Runtime.create ~seed:3L ~n:2 () in
  let mesh = Heartbeat.registers rt ~policy:Abort_policy.Always ~n:2 () in
  let sender = Heartbeat.create ~me:0 ~mesh in
  let receiver = Heartbeat.create ~me:1 ~mesh in
  Runtime.spawn rt ~pid:0 ~name:"sender" (fun () ->
      let dest = [| false; true |] in
      while true do
        Heartbeat.send sender ~dest;
        Runtime.yield ()
      done);
  let active = ref false in
  Runtime.spawn rt ~pid:1 ~name:"receiver" (fun () ->
      while true do
        let set = Heartbeat.receive receiver in
        active := set.(0);
        Runtime.yield ()
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:20_000;
  Runtime.stop rt;
  Alcotest.(check bool) "timely sender detected active" true !active

let test_heartbeat_detects_silent_writer () =
  let rt = Runtime.create ~seed:3L ~n:2 () in
  let mesh = Heartbeat.registers rt ~policy:Abort_policy.Always ~n:2 () in
  let sender = Heartbeat.create ~me:0 ~mesh in
  let receiver = Heartbeat.create ~me:1 ~mesh in
  (* Sender beats for a while, then goes silent forever. *)
  Runtime.spawn rt ~pid:0 ~name:"sender" (fun () ->
      let dest = [| false; true |] in
      for _ = 1 to 100 do
        Heartbeat.send sender ~dest;
        Runtime.yield ()
      done);
  let active = ref true in
  Runtime.spawn rt ~pid:1 ~name:"receiver" (fun () ->
      while true do
        let set = Heartbeat.receive receiver in
        active := set.(0);
        Runtime.yield ()
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:30_000;
  Runtime.stop rt;
  Alcotest.(check bool) "silent sender eventually inactive" false !active

(* Fuzz: random candidate-class assignments (all processes timely) must
   always satisfy Definition 5 / Theorem 7 for both implementations. *)
let qcheck_random_classes =
  QCheck.Test.make ~name:"random candidate classes elect cleanly" ~count:8
    QCheck.(pair (int_range 1 10_000) bool)
    (fun (seed, use_abortable) ->
      let n = 5 in
      let rng = Rng.create (Int64.of_int seed) in
      let assignment =
        List.init n (fun pid -> pid, Rng.int rng 3 (* 0=P 1=R 2=N *))
      in
      let of_kind k =
        List.filter_map (fun (pid, kind) -> if kind = k then Some pid else None)
          assignment
      in
      let pcands = match of_kind 0 with [] -> [ 0 ] | ps -> ps in
      let rcands = List.filter (fun p -> not (List.mem p pcands)) (of_kind 1) in
      let ncands = List.filter (fun p -> not (List.mem p pcands)) (of_kind 2) in
      let classes =
        {
          Tbwf_experiments.Omega_scenarios.pcands;
          rcands;
          ncands;
          untimely = [];
          crashes = [];
        }
      in
      let omega =
        if use_abortable then
          Tbwf_experiments.Scenario.Omega_abortable Tbwf_registers.Abort_policy.Always
        else Tbwf_experiments.Scenario.Omega_atomic
      in
      let outcome =
        Tbwf_experiments.Omega_scenarios.run ~seed:(Int64.of_int (seed + 7)) ~n
          ~omega ~classes ~segments:12 ~segment_steps:5_000 ~rcand_phase:60
          ~ncand_phase:80 ()
      in
      let verdict = outcome.Tbwf_experiments.Omega_scenarios.verdict in
      verdict.Omega_spec.violations = []
      &&
      match verdict.Omega_spec.elected with
      | Some ell -> List.mem ell (pcands @ rcands)
      | None -> false)

(* --- the one form ------------------------------------------------------------

   Both Ω∆ installers and the naive booster run their election as step
   machines on both substrates. Each case pins a run's digest: the trace
   fingerprint, the final views and every leader view with its step. The
   digests were captured while the fiber forms of Figures 3 and 6, written
   line by line from the paper, still existed and agreed with the machines
   on every one of these runs. *)

let election_prefixes = [ "omega["; "omega-ab["; "naive-boost[" ]

(* The form of every election task spawned on pids [0, n). *)
let election_task_forms rt ~n =
  List.concat_map
    (fun pid ->
      List.filter_map
        (fun (name, form) ->
          if
            List.exists
              (fun prefix -> String.starts_with ~prefix name)
              election_prefixes
          then Some form
          else None)
        (Runtime.task_forms rt ~pid))
    (List.init n Fun.id)

(* One task per process that leaves and rejoins the competition on its
   own rhythm, so the machines keep leaving and re-entering their waits. *)
let toggle_candidacy rt handles =
  Array.iter
    (fun (h : Omega_spec.handle) ->
      h.candidate := true;
      let pid = h.Omega_spec.pid in
      let period = 2_000 + (700 * pid) in
      Runtime.spawn rt ~pid ~name:(Fmt.str "toggle[%d]" pid) (fun () ->
          let i = ref 0 in
          while true do
            Runtime.yield ();
            incr i;
            if !i mod period = 0 then h.candidate := not !(h.candidate)
          done))
    handles

(* A run's digest, and whether some process elected itself. *)
let observe ~seed ~n ~plan install =
  let rt = Runtime.create ~seed ~n () in
  let trace = Trace.create () in
  let leader_views = ref [] in
  Runtime.set_sink rt
    (Sink.tee (Trace.recorder trace)
       {
         Sink.nil with
         Sink.active = true;
         on_signal =
           (fun ~step ~pid signal ->
             match signal with
             | Sink.Leader_view { leader } ->
               leader_views := ((step, pid), leader) :: !leader_views
             | _ -> ());
       });
  let handles = install rt in
  Alcotest.(check bool) "every election task is a machine" true
    (List.for_all (fun f -> f = Runtime.Machine) (election_task_forms rt ~n));
  toggle_candidacy rt handles;
  let policy =
    match plan with
    | None -> Policy.round_robin ()
    | Some plan ->
      Tbwf_nemesis.Fault_plan.install_crashes plan rt;
      Tbwf_nemesis.Fault_plan.policy plan
  in
  Runtime.run rt ~policy ~steps:30_000;
  Runtime.stop rt;
  let leader_views = List.rev !leader_views in
  let shown =
    Fmt.str "%s@.%a@.%a"
      (Digest.to_hex (Digest.string (Trace.fingerprint trace)))
      Fmt.(list ~sep:sp Omega_spec.pp_view)
      (Array.to_list
         (Array.map (fun (h : Omega_spec.handle) -> !(h.leader)) handles))
      Fmt.(
        list ~sep:sp (fun ppf ((step, pid), leader) ->
            pf ppf "%d,%d:%a" step pid (option ~none:(any "-") int) leader))
      leader_views
  in
  ( Digest.to_hex (Digest.string shown),
    List.exists (fun ((_, pid), leader) -> leader = Some pid) leader_views )

(* Under round robin and under the fault plan's [Every] rotation with a
   crash, the run must reproduce its digest and elect someone. *)
let check_goldens ?(n = 3) ~goldens:(rr_golden, plan_golden) install =
  let plan =
    Tbwf_nemesis.Fault_plan.make ~n ~horizon:30_000
      [ Tbwf_nemesis.Fault_plan.Crash { pid = n - 1; at = 17_001 } ]
  in
  List.iter
    (fun (plan, golden) ->
      let digest, elected = observe ~seed:21L ~n ~plan install in
      Alcotest.(check string) "run digest" golden digest;
      Alcotest.(check bool) "some process elected itself" true elected)
    [ None, rr_golden; Some plan, plan_golden ]

let test_golden_figure3 () =
  List.iter
    (fun (self_punishment, goldens) ->
      check_goldens ~goldens (fun rt ->
          (Omega_registers.install ~self_punishment rt)
            .Omega_registers.handles))
    [
      ( true,
        ("fd66ef14b22d8ba91e9e812a446ed095", "e3cffe2d159f1439d9354865b70edc30")
      );
      ( false,
        ("c416139732d5840cd518248531709117", "36713dc0e7275548a405553129745514")
      );
    ]

let test_golden_figure6 () =
  List.iter
    (fun (policy, goldens) ->
      check_goldens ~goldens (fun rt ->
          (Omega_abortable.install rt ~policy ()).Omega_abortable.handles))
    [
      ( Abort_policy.Always,
        ("c90e6dc978a1b95a0b5d57a913a441e3", "4a0bfd7aefb75482d273fe415390c408")
      );
      ( Abort_policy.Random 0.3,
        ("c90e6dc978a1b95a0b5d57a913a441e3", "956e8f4e6b7f7bbc9cb50947728e4455")
      );
    ]

let test_golden_naive () =
  check_goldens
    ~goldens:
      ("ba95b440a08ffc8fb1eeb934443ab5ff", "e0cfad8324ef40bdd6a4fa30197b160f")
    (fun rt ->
      (Tbwf_core.Baselines.Naive_booster.install rt)
        .Tbwf_core.Baselines.Naive_booster.handles)

let test_substrate_picks_form () =
  let open Tbwf_system in
  let forms substrate id =
    let stack = System.build ~substrate ~n:3 id in
    let forms = election_task_forms stack.System.rt ~n:3 in
    Runtime.stop stack.System.rt;
    forms
  in
  let mp = System.Message_passing Tbwf_net.Net.default_config in
  List.iter
    (fun id ->
      List.iter
        (fun substrate ->
          let name =
            System.to_string id ^ " on " ^ System.substrate_name substrate
          in
          let forms = forms substrate id in
          Alcotest.(check int) (name ^ ": one election task per process") 3
            (List.length forms);
          Alcotest.(check bool) (name ^ ": machines") true
            (List.for_all (fun f -> f = Runtime.Machine) forms))
        [ System.Shared_memory; mp ])
    [
      System.Tbwf_atomic;
      System.Tbwf_abortable;
      System.Tbwf_universal;
      System.Naive_booster;
    ]

(* On message passing every task of a paper stack is a machine, the
   replica servers included. *)
let test_no_fiber_on_message_passing () =
  let open Tbwf_system in
  let mp = System.Message_passing Tbwf_net.Net.default_config in
  List.iter
    (fun id ->
      let stack = System.build ~substrate:mp ~n:3 id in
      let rt = stack.System.rt in
      Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:2_000;
      let n = Runtime.n rt in
      Alcotest.(check int) "three replicas after three clients" 6 n;
      for pid = 0 to n - 1 do
        List.iter
          (fun (name, form) ->
            Alcotest.(check bool)
              (Fmt.str "%s: pid %d task %s is a machine" (System.to_string id)
                 pid name)
              true (form = Runtime.Machine))
          (Runtime.task_forms rt ~pid)
      done;
      Runtime.stop rt)
    [ System.Tbwf_atomic; System.Tbwf_abortable ]

let () =
  Alcotest.run "omega"
    [
      ( "spec checker",
        [
          Alcotest.test_case "accepts stable election" `Quick
            test_check_election_accepts_stable;
          Alcotest.test_case "rejects untimely leader" `Quick
            test_check_election_rejects_untimely_leader;
          Alcotest.test_case "ncand must see ?" `Quick
            test_check_election_ncand_must_see_unknown;
          Alcotest.test_case "rcand may see ?" `Quick
            test_check_election_rcand_may_see_unknown;
          Alcotest.test_case "lagging exemption" `Quick test_lagging_exemption;
          Alcotest.test_case "canonical join waits" `Quick test_canonical_join_waits;
        ] );
      ( "election",
        [
          Alcotest.test_case "atomic: all-timely elects" `Quick
            (elect_all_timely `Atomic);
          Alcotest.test_case "abortable: all-timely elects" `Quick
            (elect_all_timely `Abortable);
          Alcotest.test_case "atomic: survives leader crash" `Slow
            (elect_past_crashed `Atomic);
          Alcotest.test_case "abortable: survives leader crash" `Slow
            (elect_past_crashed `Abortable);
        ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest qcheck_random_classes ] );
      ( "abortable channels",
        [
          Alcotest.test_case "msg channel delivers final value" `Quick
            test_msg_channel_delivers_final_value;
          Alcotest.test_case "heartbeat detects timely writer" `Quick
            test_heartbeat_detects_timely_writer;
          Alcotest.test_case "heartbeat detects silent writer" `Quick
            test_heartbeat_detects_silent_writer;
        ] );
      ( "forms",
        [
          Alcotest.test_case "atomic election golden" `Quick
            test_golden_figure3;
          Alcotest.test_case "abortable election golden" `Quick
            test_golden_figure6;
          Alcotest.test_case "naive booster golden" `Quick test_golden_naive;
          Alcotest.test_case "substrate picks the form" `Quick
            test_substrate_picks_form;
          Alcotest.test_case "no fiber on message passing" `Quick
            test_no_fiber_on_message_passing;
        ] );
    ]
