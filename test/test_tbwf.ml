open Tbwf_sim
open Tbwf_registers
open Tbwf_omega
open Tbwf_objects
open Tbwf_core

let value = Alcotest.testable Value.pp Value.equal

let build_stack ?(seed = 2L) ?(canonical = true) ?(omega = `Atomic)
    ?(qa_universal = false) ~n ~spec () =
  let rt = Runtime.create ~seed ~n () in
  let handles =
    match omega with
    | `Atomic -> (Omega_registers.install rt).Omega_registers.handles
    | `Abortable ->
      (Omega_abortable.install rt ~policy:Abort_policy.Always ()).Omega_abortable.handles
  in
  let qa =
    if qa_universal then
      Qa_universal.create rt ~name:"obj" ~spec ~policy:Abort_policy.Always ()
    else Qa_object.create rt ~name:"obj" ~spec ~policy:Abort_policy.Always ()
  in
  let tbwf = Tbwf.make ~qa ~omega_handles:handles ~canonical () in
  rt, qa, tbwf

let test_finite_workload_completes variant () =
  let omega, qa_universal =
    match variant with
    | `Atomic_direct -> `Atomic, false
    | `Atomic_universal -> `Atomic, true
    | `Abortable_direct -> `Abortable, false
  in
  let n = 3 in
  let rt, qa, tbwf =
    build_stack ~omega ~qa_universal ~n ~spec:Counter.spec ()
  in
  let stats = Workload.fresh_stats ~n in
  Workload.spawn_clients rt ~pids:[ 0; 1; 2 ] ~stats ~invoke:(Tbwf.invoke tbwf)
    ~next_op:(Workload.n_times 10 Counter.inc);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:1_500_000;
  Runtime.stop rt;
  Alcotest.(check (array int)) "all clients finished" [| 10; 10; 10 |]
    stats.Workload.completed;
  Alcotest.check value "counter exact (no lost or duplicated increments)"
    (Value.Int 30) (qa.Qa_intf.peek_state ())

let test_responses_are_sequential () =
  (* Every inc's response is a distinct pre-increment value: collect them
     all and verify we saw exactly 0..total-1. *)
  let n = 3 in
  let rt, _, tbwf = build_stack ~n ~spec:Counter.spec () in
  let seen = ref [] in
  for pid = 0 to n - 1 do
    Runtime.spawn rt ~pid ~name:"client" (fun () ->
        for _ = 1 to 8 do
          (* Bind before consing: [e1 :: e2] evaluates [e2] first, and the
             invoke suspends mid-expression, so a direct
             [seen := ... :: !seen] would clobber other clients' pushes. *)
          let response = Tbwf.invoke tbwf Counter.inc in
          seen := Value.to_int response :: !seen
        done)
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:1_500_000;
  Runtime.stop rt;
  let sorted = List.sort compare !seen in
  Alcotest.(check (list int)) "responses are a permutation of 0..23"
    (List.init 24 Fun.id) sorted

let test_stack_object_through_tbwf () =
  let n = 2 in
  let rt, qa, tbwf = build_stack ~n ~spec:Stack_obj.spec () in
  let popped = ref [] in
  Runtime.spawn rt ~pid:0 ~name:"pusher" (fun () ->
      for k = 1 to 5 do
        let (_ : Value.t) = Tbwf.invoke tbwf (Stack_obj.push (Value.Int k)) in
        ()
      done);
  Runtime.spawn rt ~pid:1 ~name:"popper" (fun () ->
      let non_empty = ref 0 in
      while !non_empty < 5 do
        match Tbwf.invoke tbwf Stack_obj.pop with
        | v when Value.equal v Stack_obj.empty_response -> ()
        | v ->
          incr non_empty;
          popped := v :: !popped
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:1_500_000;
  Runtime.stop rt;
  Alcotest.(check int) "all five values popped" 5 (List.length !popped);
  Alcotest.check value "stack empty at end" (Value.List [])
    (qa.Qa_intf.peek_state ())

let test_untimely_cannot_block_timely () =
  let n = 4 in
  let rt, _, tbwf = build_stack ~seed:6L ~n ~spec:Counter.spec () in
  let stats = Workload.fresh_stats ~n in
  Workload.spawn_clients rt ~pids:[ 0; 1; 2; 3 ] ~stats
    ~invoke:(Tbwf.invoke tbwf)
    ~next_op:(Workload.forever Counter.inc);
  let policy =
    Policy.of_patterns
      [
        0, Policy.Slowing { initial_gap = 50; growth = 1.2; burst = 32 };
        1, Policy.Every { period = 6; offset = 0 };
        2, Policy.Every { period = 6; offset = 2 };
        3, Policy.Every { period = 6; offset = 4 };
      ]
  in
  Runtime.run rt ~policy ~steps:150_000;
  let mid = Array.copy stats.Workload.completed in
  Runtime.run rt ~policy ~steps:150_000;
  Runtime.stop rt;
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Fmt.str "timely pid %d progressed in the second half" pid)
        true
        (stats.Workload.completed.(pid) > mid.(pid)))
    [ 1; 2; 3 ]

let test_obstruction_freedom_solo_suffix () =
  let n = 3 in
  let rt, _, tbwf = build_stack ~seed:10L ~n ~spec:Counter.spec () in
  let stats = Workload.fresh_stats ~n in
  Workload.spawn_clients rt ~pids:[ 0; 1; 2 ] ~stats ~invoke:(Tbwf.invoke tbwf)
    ~next_op:(Workload.forever Counter.inc);
  let policy = Policy.solo_after ~n ~pid:2 ~step:30_000 in
  Runtime.run rt ~policy ~steps:30_000;
  let before = stats.Workload.completed.(2) in
  Runtime.run rt ~policy ~steps:60_000;
  Runtime.stop rt;
  Alcotest.(check bool) "solo process completes ops" true
    (stats.Workload.completed.(2) > before)

let test_non_canonical_monopolizes () =
  let run canonical =
    let n = 3 in
    let rt, _, tbwf = build_stack ~seed:4L ~canonical ~n ~spec:Counter.spec () in
    let stats = Workload.fresh_stats ~n in
    Workload.spawn_clients rt ~pids:[ 0; 1; 2 ] ~stats
      ~invoke:(Tbwf.invoke tbwf)
      ~next_op:(Workload.forever Counter.inc);
    Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:150_000;
    Runtime.stop rt;
    stats.Workload.completed
  in
  let fair = run true in
  let unfair = run false in
  let min_max arr = Array.fold_left min max_int arr, Array.fold_left max 0 arr in
  let fair_min, fair_max = min_max fair in
  let unfair_min, _ = min_max unfair in
  Alcotest.(check bool) "canonical is fair (min within 3x of max)" true
    (fair_max <= 3 * max 1 fair_min);
  Alcotest.(check int) "non-canonical starves someone completely" 0 unfair_min

let test_naive_booster_collapses () =
  (* One decelerating process; compare last-segment timely throughput. *)
  let run make_handles =
    let n = 3 in
    let rt = Runtime.create ~seed:15L ~n () in
    let handles = make_handles rt in
    let qa =
      Qa_object.create rt ~name:"obj" ~spec:Counter.spec
        ~policy:Abort_policy.Always ()
    in
    let tbwf = Tbwf.make ~qa ~omega_handles:handles () in
    let stats = Workload.fresh_stats ~n in
    Workload.spawn_clients rt ~pids:[ 0; 1; 2 ] ~stats
      ~invoke:(Tbwf.invoke tbwf)
      ~next_op:(Workload.forever Counter.inc);
    let policy =
      Policy.of_patterns
        [
          0, Policy.Slowing { initial_gap = 60; growth = 1.15; burst = 24 };
          1, Policy.Every { period = 4; offset = 0 };
          2, Policy.Every { period = 4; offset = 2 };
        ]
    in
    Runtime.run rt ~policy ~steps:200_000;
    let mid = stats.Workload.completed.(1) + stats.Workload.completed.(2) in
    Runtime.run rt ~policy ~steps:200_000;
    Runtime.stop rt;
    let total = stats.Workload.completed.(1) + stats.Workload.completed.(2) in
    total - mid
  in
  let tbwf_late =
    run (fun rt -> (Omega_registers.install rt).Omega_registers.handles)
  in
  let naive_late =
    run (fun rt -> (Baselines.Naive_booster.install rt).Baselines.Naive_booster.handles)
  in
  Alcotest.(check bool)
    (Fmt.str "TBWF keeps going late (%d) while naive collapses (%d)" tbwf_late
       naive_late)
    true
    (tbwf_late > 4 * max 1 naive_late)

let test_retry_baseline_livelocks_under_rotation () =
  let n = 3 in
  let rt = Runtime.create ~seed:16L ~n () in
  let qa =
    Qa_object.create rt ~name:"obj" ~spec:Counter.spec
      ~policy:Abort_policy.Always ()
  in
  let stats = Workload.fresh_stats ~n in
  Workload.spawn_clients rt ~pids:[ 0; 1; 2 ] ~stats
    ~invoke:(Baselines.retry_invoke qa)
    ~next_op:(Workload.forever Counter.inc);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:30_000;
  Runtime.stop rt;
  Alcotest.(check (array int)) "nobody completes under perfect interleaving"
    [| 0; 0; 0 |] stats.Workload.completed

let test_retry_baseline_progresses_solo () =
  let rt = Runtime.create ~n:1 () in
  let qa =
    Qa_object.create rt ~name:"obj" ~spec:Counter.spec
      ~policy:Abort_policy.Always ()
  in
  let stats = Workload.fresh_stats ~n:1 in
  Workload.spawn_clients rt ~pids:[ 0 ] ~stats
    ~invoke:(Baselines.retry_invoke qa)
    ~next_op:(Workload.n_times 20 Counter.inc);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10_000;
  Runtime.stop rt;
  Alcotest.(check int) "solo retry completes everything" 20
    stats.Workload.completed.(0)

let test_progress_reports () =
  let n = 2 in
  let rt, _, tbwf = build_stack ~n ~spec:Counter.spec () in
  let trace = Trace.create () in
  Runtime.set_sink rt (Trace.recorder trace);
  let stats = Workload.fresh_stats ~n in
  Workload.spawn_clients rt ~pids:[ 0; 1 ] ~stats ~invoke:(Tbwf.invoke tbwf)
    ~next_op:(Workload.n_times 5 Counter.inc);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:600_000;
  let timely =
    Timeliness.timely_all trace ~n ~from_step:0 ~bound:(4 * n)
  in
  Runtime.stop rt;
  (* TBWF on a finite workload: every timely process finished everything
     it issued. *)
  for pid = 0 to n - 1 do
    Alcotest.(check bool) (Fmt.str "pid %d timely" pid) true timely.(pid);
    Alcotest.(check int)
      (Fmt.str "pid %d completed all it issued" pid)
      stats.Workload.issued.(pid) stats.Workload.completed.(pid)
  done

(* Fuzzing: under arbitrary weighted schedules (and an optional crash), the
   counter's state must always satisfy completed <= state <= issued — every
   returned operation took effect exactly once, and at most one operation
   per process is in flight. *)
let qcheck_stack_consistency =
  QCheck.Test.make ~name:"TBWF counter consistent under random schedules"
    ~count:25
    QCheck.(pair (int_range 1 100_000) bool)
    (fun (seed, with_crash) ->
      let n = 3 in
      let rt, qa, tbwf =
        build_stack ~seed:(Int64.of_int seed) ~n ~spec:Counter.spec ()
      in
      let stats = Workload.fresh_stats ~n in
      Workload.spawn_clients rt ~pids:[ 0; 1; 2 ] ~stats
        ~invoke:(Tbwf.invoke tbwf)
        ~next_op:(Workload.forever Counter.inc);
      if with_crash then Runtime.crash_at rt ~pid:(seed mod n) ~step:20_000;
      let policy =
        Policy.weighted
          [| 0, 1.0; 1, 0.3 +. float_of_int (seed mod 5); 2, 1.5 |]
      in
      Runtime.run rt ~policy ~steps:60_000;
      Runtime.stop rt;
      let state = Value.to_int (qa.Qa_intf.peek_state ()) in
      let completed = Array.fold_left ( + ) 0 stats.Workload.completed in
      let issued = Array.fold_left ( + ) 0 stats.Workload.issued in
      completed <= state && state <= issued)

(* End-to-end linearizability: record each client-level TBWF invocation as
   an operation with its [start step, return step] window and check the
   whole history against the sequential counter spec with the Wing–Gong
   checker. Figure 7 linearizes every operation at its (unique) effective
   QA application, which lies inside the client window, so the history must
   always be linearizable. *)
let qcheck_tbwf_linearizable =
  QCheck.Test.make ~name:"TBWF client histories linearizable" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let n = 3 in
      let rt, _, tbwf =
        build_stack ~seed:(Int64.of_int seed) ~n ~spec:Counter.spec ()
      in
      let history = ref [] in
      for pid = 0 to n - 1 do
        Runtime.spawn rt ~pid ~name:"client" (fun () ->
            for _ = 1 to 5 do
              let invoke = Runtime.now rt in
              let result = Tbwf.invoke tbwf Counter.inc in
              let respond = Runtime.now rt in
              history :=
                {
                  Tbwf_check.History.pid;
                  op = Value.Str "inc";
                  result;
                  invoke;
                  respond;
                }
                :: !history
            done)
      done;
      Runtime.run rt
        ~policy:(Policy.weighted [| 0, 1.0; 1, 1.8; 2, 0.6 |])
        ~steps:2_000_000;
      Runtime.stop rt;
      Tbwf_check.Linearizability.check Tbwf_check.Linearizability.counter_spec
        !history)

let qcheck_stack_deterministic =
  QCheck.Test.make ~name:"same seed, same outcome" ~count:10
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let run () =
        let n = 3 in
        let rt, qa, tbwf =
          build_stack ~seed:(Int64.of_int seed) ~n ~spec:Counter.spec ()
        in
        let stats = Workload.fresh_stats ~n in
        Workload.spawn_clients rt ~pids:[ 0; 1; 2 ] ~stats
          ~invoke:(Tbwf.invoke tbwf)
          ~next_op:(Workload.forever Counter.inc);
        Runtime.run rt ~policy:(Policy.weighted [| 0, 1.3; 1, 0.8; 2, 1.0 |])
          ~steps:30_000;
        Runtime.stop rt;
        Array.copy stats.Workload.completed, qa.Qa_intf.peek_state ()
      in
      let c1, s1 = run () in
      let c2, s2 = run () in
      c1 = c2 && Value.equal s1 s2)

let test_scale_n12 () =
  (* Larger configuration sanity: 12 processes (132 monitors, ~25 tasks per
     process), everyone finishes a finite workload and the counter is
     exact. *)
  let n = 12 in
  let rt, qa, tbwf = build_stack ~seed:20L ~n ~spec:Counter.spec () in
  let stats = Workload.fresh_stats ~n in
  Workload.spawn_clients rt ~pids:(List.init n Fun.id) ~stats
    ~invoke:(Tbwf.invoke tbwf)
    ~next_op:(Workload.n_times 3 Counter.inc);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:8_000_000;
  Runtime.stop rt;
  Alcotest.(check (array int)) "all finished" (Array.make n 3)
    stats.Workload.completed;
  Alcotest.check value "exact count" (Value.Int (3 * n)) (qa.Qa_intf.peek_state ())

(* --- machine and fiber clients ---------------------------------------------

   [System.build] runs every client as a step machine; a caller that builds
   with [~client_pids:[]] and spawns [Workload.spawn_clients ~invoke] over
   the stack's own [invoke] gets the fiber form of the same client at the
   same wiring point. The two forms must agree on everything observed: the
   trace, the telemetry snapshot and the workload stats. *)

module System = Tbwf_system.System
module Campaign = Tbwf_nemesis.Campaign
module Fault_plan = Tbwf_nemesis.Fault_plan
module Scenario = Tbwf_experiments.Scenario

type client_form = Machines | Fibers

(* One configuration of a forms comparison. *)
type config = {
  id : System.id;
  substrate : System.substrate;
  universal : bool;
  canonical : bool;
  seed : int64;
  steps : int;
  policy : unit -> Policy.t;
  plan : Fault_plan.t option;  (* its crashes and abort policies *)
}

let mp_substrate = System.Message_passing Tbwf_net.Net.default_config
let forms_n = 3

let pp_config fmt c =
  Fmt.pf fmt "%s on %s, %s QA%s, seed %Ld, %d steps%s" (System.to_string c.id)
    (System.substrate_name c.substrate)
    (if c.universal then "universal" else "direct")
    (if c.canonical then "" else ", not canonical")
    c.seed c.steps
    (match c.plan with
    | None -> ""
    | Some plan -> Fmt.str ", plan %s" (Fault_plan.to_string plan))

type observed = {
  fingerprint : string;  (* digest of the trace fingerprint *)
  snapshot : string;
  stats : int list * int list;  (* issued, completed *)
}

let client_forms rt ~n =
  List.concat_map
    (fun pid ->
      List.filter_map
        (fun (name, form) -> if name = "client" then Some form else None)
        (Runtime.task_forms rt ~pid))
    (List.init n Fun.id)

let observe_clients form c =
  let n =
    match c.plan with Some plan -> Fault_plan.n plan | None -> forms_n
  in
  let abort_policy target =
    Option.map
      (fun plan ->
        Fault_plan.abort_policy plan ~target ~base:Abort_policy.Always)
      c.plan
  in
  let stack =
    System.build ~substrate:c.substrate ~seed:c.seed ~canonical:c.canonical
      ~qa_universal:c.universal ?qa_policy:(abort_policy Fault_plan.Qa)
      ?mesh_policy:(abort_policy Fault_plan.Omega_mesh)
      ?client_pids:(match form with Machines -> None | Fibers -> Some [])
      ~telemetry:true ~n c.id
  in
  let rt = stack.System.rt in
  let expected =
    match form with
    | Machines -> Runtime.Machine
    | Fibers ->
      Workload.spawn_clients rt ~pids:(List.init n Fun.id)
        ~stats:stack.System.stats ~invoke:stack.System.invoke
        ~next_op:(Workload.forever Counter.inc);
      Runtime.Fiber
  in
  let forms = client_forms rt ~n in
  Alcotest.(check int) "one client per process" n (List.length forms);
  Alcotest.(check bool) "every client has the form under test" true
    (List.for_all (fun f -> f = expected) forms);
  Option.iter (fun plan -> Fault_plan.install_crashes plan rt) c.plan;
  Runtime.run rt ~policy:(c.policy ()) ~steps:c.steps;
  Runtime.stop rt;
  let stats = stack.System.stats in
  {
    fingerprint =
      Digest.to_hex
        (Digest.string (Trace.fingerprint (Option.get stack.System.trace)));
    snapshot =
      Tbwf_telemetry.Collector.snapshot_string
        (Option.get stack.System.telemetry);
    stats =
      ( Array.to_list stats.Workload.issued,
        Array.to_list stats.Workload.completed );
  }

(* Both forms agree; returns the operations the machines completed. *)
let check_client_forms c =
  let msg what = Fmt.str "%s: %a" what pp_config c in
  let machines = observe_clients Machines c in
  let fibers = observe_clients Fibers c in
  Alcotest.(check string) (msg "trace fingerprint digest") fibers.fingerprint
    machines.fingerprint;
  Alcotest.(check string) (msg "telemetry snapshot") fibers.snapshot
    machines.snapshot;
  Alcotest.(check (pair (list int) (list int)))
    (msg "workload stats") fibers.stats machines.stats;
  let _, completed = machines.stats in
  List.fold_left ( + ) 0 completed

let forms_config ?(substrate = System.Shared_memory) ?(universal = false)
    ?(canonical = true) ?(seed = 0x53595354L) ?(steps = 4_000)
    ?(policy = fun () -> Policy.round_robin ()) ?plan id =
  { id; substrate; universal; canonical; seed; steps; policy; plan }

let replicas substrate =
  match substrate with
  | System.Shared_memory -> 0
  | System.Message_passing config -> config.Tbwf_net.Net.replicas

(* Timely rotation over pids 1 and 2 (and the replica servers, which
   serve every register on message passing); pid 0 slows down. *)
let degraded substrate () =
  let width = forms_n + replicas substrate in
  Scenario.degraded_policy ~n:width
    ~timely:(List.filter (fun p -> p <> 0) (List.init width Fun.id))

let test_client_forms_policies () =
  List.iter
    (fun substrate ->
      (* A message-passing election needs many more steps than a
         shared-memory one before the clients start calling. *)
      let steps =
        match substrate with
        | System.Shared_memory -> 4_000
        | System.Message_passing _ -> 12_000
      in
      List.iter
        (fun id ->
          let completed = ref 0 in
          List.iter
            (fun (universal, canonical) ->
              List.iter
                (fun policy ->
                  completed :=
                    !completed
                    + check_client_forms
                        (forms_config ~substrate ~universal ~canonical ~steps
                           ~policy id))
                [ (fun () -> Policy.round_robin ()); degraded substrate ])
            [ false, true; true, true; false, false; true, false ];
          (* Retry livelocks under both schedules (always-abort QA, every
             client always in an operation); the fault plans' crashes
             give it solo runs. *)
          if id <> System.Retry then
            Alcotest.(check bool)
              (Fmt.str "%s on %s completes operations" (System.to_string id)
                 (System.substrate_name substrate))
              true (!completed > 0))
        System.all)
    [ System.Shared_memory; mp_substrate ]

(* Random pid sequences with idle steps, replayed against both forms. *)
let test_client_forms_fuzzed () =
  let rng = Rng.create 0xD1FFL in
  List.iter
    (fun substrate ->
      let width = forms_n + replicas substrate in
      for round = 0 to 5 do
        let sched =
          List.init 6_000 (fun _ ->
              if Rng.bool rng 0.1 then -1 else Rng.int rng width)
        in
        let id = Rng.pick rng (Array.of_list System.all) in
        let universal = Rng.bool rng 0.5 in
        let canonical = Rng.bool rng 0.7 in
        ignore
          (check_client_forms
             (forms_config ~substrate ~universal ~canonical
                ~seed:(Int64.of_int (round + 1))
                ~steps:(List.length sched)
                ~policy:(fun () -> Policy.replay sched)
                id)
            : int)
      done)
    [ System.Shared_memory; mp_substrate ]

(* Every catalogue fault plan, so crashes land mid-operation and the QA
   and mesh abort policies follow the plan; the network catalogue too on
   message passing. Horizons are cut to keep the group quick; the plans
   scale their atoms to them. *)
let test_client_forms_fault_plans () =
  let completed = List.map (fun id -> id, ref 0) System.all in
  let cells substrate campaigns horizon =
    List.iter
      (fun campaign ->
        let n, _ = Campaign.dimensions ~quick:true in
        let substrate, plan =
          Campaign.align_substrate ~substrate
            (Campaign.plan campaign ~n ~horizon)
        in
        List.iter
          (fun (id, count) ->
            count :=
              !count
              + check_client_forms
                  (forms_config ~substrate ~seed:Campaign.default_seed
                     ~universal:(id = System.Tbwf_universal)
                     ~steps:horizon
                     ~policy:(fun () -> Fault_plan.policy plan)
                     ~plan id))
          completed)
      campaigns
  in
  cells System.Shared_memory Campaign.catalogue 24_000;
  cells mp_substrate (Campaign.catalogue @ Campaign.net_catalogue) 12_000;
  List.iter
    (fun (id, count) ->
      Alcotest.(check bool)
        (System.to_string id ^ " completes operations")
        true (!count > 0))
    completed

(* Arbitrary (system, QA, policy shape, seed, budget, crash) on shared
   memory: the crash is installed before the run and fires mid-run. *)
let qcheck_client_forms =
  let gen =
    QCheck.Gen.(
      let* sys_ix = int_bound (List.length System.all - 1) in
      let* pol = int_bound 2 in
      let* seed = map Int64.of_int (int_bound 10_000) in
      let* steps = map (fun k -> 500 + k) (int_bound 2_500) in
      let* universal = bool in
      let* canonical = bool in
      let* crash = opt (pair (int_bound (forms_n - 1)) (int_bound 2_999)) in
      return (sys_ix, pol, seed, steps, (universal, canonical), crash))
  in
  let print (sys_ix, pol, seed, steps, (universal, canonical), crash) =
    Fmt.str "(%s, policy %d, seed %Ld, steps %d, universal %b, canonical %b, crash %s)"
      (System.to_string (List.nth System.all sys_ix))
      pol seed steps universal canonical
      (match crash with
      | None -> "none"
      | Some (pid, at) -> Fmt.str "pid %d @ %d" pid at)
  in
  QCheck.Test.make ~count:25 ~name:"forms agree on arbitrary configs"
    (QCheck.make ~print gen)
    (fun (sys_ix, pol, seed, steps, (universal, canonical), crash) ->
      let policy () =
        match pol with
        | 0 -> Policy.round_robin ()
        | 1 -> Scenario.degraded_policy ~n:forms_n ~timely:[ 1 ]
        | _ -> Policy.weighted [| 0, 1.0; 1, 3.0; 2, 0.5 |]
      in
      let plan =
        Option.map
          (fun (pid, at) ->
            Fault_plan.make ~n:forms_n ~horizon:3_000
              [ Fault_plan.Crash { pid; at } ])
          crash
      in
      ignore
        (check_client_forms
           (forms_config ~universal ~canonical ~seed ~steps ~policy ?plan
              (List.nth System.all sys_ix))
          : int);
      true)

(* Caller-supplied clients stay fibers; [System.build]'s are machines on
   both substrates. *)
let test_client_forms_substrates () =
  List.iter
    (fun substrate ->
      List.iter
        (fun id ->
          let stack = System.build ~substrate ~n:forms_n id in
          let forms = client_forms stack.System.rt ~n:forms_n in
          Runtime.stop stack.System.rt;
          Alcotest.(check int) "one client per process" forms_n
            (List.length forms);
          Alcotest.(check bool)
            (Fmt.str "%s on %s: clients are machines" (System.to_string id)
               (System.substrate_name substrate))
            true
            (List.for_all (fun f -> f = Runtime.Machine) forms))
        System.all)
    [ System.Shared_memory; mp_substrate ]

let () =
  Alcotest.run "tbwf"
    [
      ( "correctness",
        [
          Alcotest.test_case "finite workload (atomic + direct QA)" `Quick
            (test_finite_workload_completes `Atomic_direct);
          Alcotest.test_case "finite workload (atomic + universal QA)" `Quick
            (test_finite_workload_completes `Atomic_universal);
          Alcotest.test_case "finite workload (abortable omega)" `Slow
            (test_finite_workload_completes `Abortable_direct);
          Alcotest.test_case "responses sequential" `Quick
            test_responses_are_sequential;
          Alcotest.test_case "stack through TBWF" `Quick
            test_stack_object_through_tbwf;
          Alcotest.test_case "progress reports" `Quick test_progress_reports;
          Alcotest.test_case "scale: n=12" `Slow test_scale_n12;
        ] );
      ( "progress",
        [
          Alcotest.test_case "untimely cannot block timely" `Slow
            test_untimely_cannot_block_timely;
          Alcotest.test_case "obstruction-freedom solo suffix" `Quick
            test_obstruction_freedom_solo_suffix;
          Alcotest.test_case "non-canonical monopolizes" `Slow
            test_non_canonical_monopolizes;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "naive booster collapses" `Slow
            test_naive_booster_collapses;
          Alcotest.test_case "retry livelocks under rotation" `Quick
            test_retry_baseline_livelocks_under_rotation;
          Alcotest.test_case "retry progresses solo" `Quick
            test_retry_baseline_progresses_solo;
        ] );
      ( "clients",
        [
          Alcotest.test_case "round robin and degraded agree" `Quick
            test_client_forms_policies;
          Alcotest.test_case "fuzzed replay schedules agree" `Quick
            test_client_forms_fuzzed;
          Alcotest.test_case "every fault plan agrees" `Quick
            test_client_forms_fault_plans;
          Alcotest.test_case "machines on both substrates" `Quick
            test_client_forms_substrates;
          QCheck_alcotest.to_alcotest qcheck_client_forms;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_stack_consistency;
            qcheck_tbwf_linearizable;
            qcheck_stack_deterministic;
          ] );
    ]
