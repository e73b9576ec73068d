open Tbwf_check
open Tbwf_system

(* --- systems under test -------------------------------------------------- *)

(* The catalogue of systems is the System registry's; re-exported so
   existing pattern matches over [Campaign.system] keep compiling. *)
type system = System.id =
  | Tbwf_atomic
  | Tbwf_abortable
  | Tbwf_universal
  | Naive_booster
  | Retry

let system_name = System.to_string
let system_of_name = System.of_string
let paper_systems = System.paper_systems
let baseline_systems = System.baseline_systems
let all_systems = System.all

(* --- running one plan against one system --------------------------------- *)

type run_result = {
  rr_system : system;
  rr_verdict : Degradation.verdict;
  rr_min_ops : int;
  rr_tail_steps : int;
  rr_tail_ops : int array;
  rr_telemetry : Tbwf_telemetry.Collector.t;
  rr_seconds : float;  (* wall-clock seconds this cell took to run *)
}

let default_seed = 0x4E454D45L (* "NEME" *)

(* The rate floor and its rationale live with the checker; see the
   [Tbwf_check.Degradation.tail_rate_denominator] doc comment. *)
let required_tail_ops ~n ~tail = Degradation.required_tail_ops ~cost:1 ~n ~tail

let net_cost_factor = Cell_runner.net_cost_factor

(* Align a plan and a substrate choice: on message passing the plan must
   know the replica count (its compiled policy schedules the replica
   server pids; its prediction carries the emergent-timeliness picture),
   and the network config must carry the plan's network atoms as
   events. A plan written for replicas cannot run on shared memory. *)
let align_substrate ?substrate plan =
  match substrate with
  | None | Some System.Shared_memory ->
    if Fault_plan.replicas plan > 0 then
      invalid_arg
        "Campaign.run_plan: plan has network/replica atoms; run it on a          message-passing substrate"
    else System.Shared_memory, plan
  | Some (System.Message_passing config) ->
    let plan =
      if Fault_plan.replicas plan > 0 then plan
      else
        Fault_plan.make
          ~replicas:config.Tbwf_net.Net.replicas
          ~n:(Fault_plan.n plan) ~horizon:(Fault_plan.horizon plan)
          (Fault_plan.atoms plan)
    in
    let config =
      {
        config with
        Tbwf_net.Net.replicas = Fault_plan.replicas plan;
        events = config.Tbwf_net.Net.events @ Fault_plan.net_events plan;
      }
    in
    System.Message_passing config, plan

let run_plan ?substrate ?(seed = default_seed) ?stream ~plan ~system () =
  let substrate, plan = align_substrate ?substrate plan in
  let start = Unix.gettimeofday () in
  let stream =
    Option.map
      (fun (every, emit) ->
        let fields verdict = [ "verdict", verdict ] in
        { Cell_runner.every; monitor = None; fields; emit })
      stream
  in
  (* Everything but the plan's policies and crashes is the registry's
     stock stack: one counter client per process, telemetry attached.
     The verdict is decided online, so nothing reads a trace. *)
  let cell =
    Cell_runner.run ~plan ~stream ~build:(fun ~qa_policy ~mesh_policy ->
        System.build ~substrate ~seed ~record_trace:false ~qa_policy
          ~mesh_policy ~telemetry:true ~n:(Fault_plan.n plan) system)
  in
  {
    rr_system = system;
    rr_verdict = cell.Cell_runner.cr_verdict;
    rr_min_ops = cell.Cell_runner.cr_min_ops;
    rr_tail_steps =
      Fault_plan.horizon plan - cell.Cell_runner.cr_prediction.pred_from;
    rr_tail_ops = cell.Cell_runner.cr_tail_ops;
    rr_telemetry = cell.Cell_runner.cr_telemetry;
    rr_seconds = Unix.gettimeofday () -. start;
  }

(* --- the campaign catalogue ---------------------------------------------- *)

type t = {
  c_name : string;
  c_summary : string;
  c_atom : string;
  c_plan : n:int -> horizon:int -> Fault_plan.t;
  c_expect_fail : system list;
}

let name c = c.c_name
let summary c = c.c_summary
let headline_atom c = c.c_atom
let expect_fail c = c.c_expect_fail
let plan c ~n ~horizon = c.c_plan ~n ~horizon

(* E2's proven deceleration: the naive booster's doubling timeout overtakes
   ×1.15 gap growth and trusts the process through ever-longer waits, while
   TBWF's +1 adaptation keeps suspecting and punishing it. *)
let slow ~pid ~at = Fault_plan.Slow { pid; at; gap = 60; growth = 1.15 }

(* Every campaign keeps a timeliness fault on process 0 from step 0: the
   naive booster's registers are atomic and its monitors ignore abort
   atoms, so a campaign whose only faults live below the register
   abstraction could not distinguish graceful degradation from boosting at
   all. The control makes process 0 non-timely in every campaign, which is
   exactly the fault class the baselines mishandle (E2), while the
   headline atom stresses the paper algorithms in its own way. The control
   starts at step 0 — by the time the tail window opens, the decelerating
   gap is so large that the booster's suspicion windows have become
   vanishingly rare, which is what makes its trickle measurably distinct
   from a timely process's sustained rate. *)
let catalogue =
  [
    {
      c_name = "slowdown";
      c_summary =
        "process 0 decelerates forever from the start; every other process \
         must keep completing operations (the paper's headline scenario, \
         as E2)";
      c_atom = "slow";
      c_plan =
        (fun ~n ~horizon ->
          Fault_plan.make ~n ~horizon [ slow ~pid:0 ~at:0 ]);
      c_expect_fail = baseline_systems;
    };
    {
      c_name = "gst";
      c_summary =
        "processes 1..n-1 flicker from the start and become timely at \
         their own GST (h/2); process 0 decelerates forever and never \
         stabilizes — a per-process global stabilization time (as E14)";
      c_atom = "timely";
      c_plan =
        (fun ~n ~horizon ->
          (* Constant-duty flicker (growth 1.0): the observers stay
             intermittent pre-GST but their clocks keep running, so the
             pre-GST phase exercises recovery rather than freezing the
             whole system. *)
          let flicker pid =
            Fault_plan.Flicker
              {
                pid;
                at = 0;
                active = 80;
                sleep = 200 + (40 * pid);
                growth = 1.0;
              }
          in
          let gst pid =
            Fault_plan.Timely { pid; at = horizon / 2; period = n + 1 }
          in
          Fault_plan.make ~n ~horizon
            (slow ~pid:0 ~at:0
            :: List.concat_map
                 (fun pid -> [ flicker pid; gst pid ])
                 (List.init (n - 1) (fun i -> i + 1))));
      c_expect_fail = baseline_systems;
    };
    {
      c_name = "flicker";
      c_summary =
        "process 0 flickers from the start with geometrically growing \
         sleeps — intermittent timeliness that keeps luring boosters into \
         re-trusting it (as E9)";
      c_atom = "flicker";
      c_plan =
        (fun ~n ~horizon ->
          (* The flicker's cycle lengths scale with the horizon (40 and
             200 at the quick 96k), so the shape is self-similar at any
             dimensions — in particular the stretched message-passing
             horizons keep the tail inside the same flicker regime. *)
          Fault_plan.make ~n ~horizon
            [
              Fault_plan.Flicker
                {
                  pid = 0;
                  at = 0;
                  active = max 1 (horizon / 2_400);
                  sleep = max 1 (horizon / 480);
                  growth = 1.2;
                };
            ]);
      c_expect_fail = baseline_systems;
    };
    {
      c_name = "crash-storm";
      c_summary =
        "process 0 decelerates from the start, then process 1 crashes at \
         5h/8: the survivors must absorb the crash and keep completing \
         while the decelerating process still poisons boosters";
      c_atom = "crash";
      c_plan =
        (fun ~n ~horizon ->
          Fault_plan.make ~n ~horizon
            [
              slow ~pid:0 ~at:0;
              Fault_plan.Crash { pid = 1; at = 5 * horizon / 8 };
            ]);
      c_expect_fail = baseline_systems;
    };
    {
      c_name = "abort-ramp";
      c_summary =
        "operations on the query-abortable object abort with probability \
         ramping 0.5 to 0.9 over [h/4, 3h/4), then the storm lifts; plus \
         the slowdown control on process 0";
      c_atom = "abort-ramp";
      c_plan =
        (fun ~n ~horizon ->
          Fault_plan.make ~n ~horizon
            [
              slow ~pid:0 ~at:0;
              Fault_plan.Abort_ramp
                {
                  target = Fault_plan.Qa;
                  from = horizon / 4;
                  until = 3 * horizon / 4;
                  rate0 = 0.5;
                  rate1 = 0.9;
                };
            ]);
      c_expect_fail = baseline_systems;
    };
    {
      c_name = "staleness";
      c_summary =
        "heartbeat writes into the Ω mesh are lost over [h/4, 3h/4) — \
         every process looks crashed to every other — then delivery \
         resumes; plus the slowdown control on process 0";
      c_atom = "staleness";
      c_plan =
        (fun ~n ~horizon ->
          Fault_plan.make ~n ~horizon
            [
              slow ~pid:0 ~at:0;
              Fault_plan.Staleness
                { from = horizon / 4; until = 3 * horizon / 4 };
            ]);
      c_expect_fail = baseline_systems;
    };
  ]

(* --- the network campaigns ------------------------------------------------ *)

(* Message-passing-substrate campaigns: same slowdown control on process
   0, plus a network headline atom. Each is designed so the final regime
   leaves every surviving client either quorate (a live majority of
   replicas behind timely links — its guarantee must hold) or provably
   cut off (exempt). *)
let net_replicas = 3

let net_catalogue =
  [
    {
      c_name = "net-partition-heal";
      c_summary =
        "a partition isolates replica 0 over [h/4, h/2), then heals: a          transient minority cut that retransmissions must ride out; plus          the slowdown control on process 0";
      c_atom = "partition";
      c_plan =
        (fun ~n ~horizon ->
          Fault_plan.make ~replicas:net_replicas ~n ~horizon
            [
              slow ~pid:0 ~at:0;
              Fault_plan.Partition
                { at = horizon / 4; side = [ Fault_plan.Replica 0 ] };
              Fault_plan.Heal { at = horizon / 2 };
            ]);
      c_expect_fail = baseline_systems;
    };
    {
      c_name = "net-minority-partition";
      c_summary =
        "from h/2, replica 2 is partitioned away forever: a persistent          minority cut — quorums keep forming on the majority side, so          every timely client stays quorate; plus the slowdown control";
      c_atom = "partition";
      c_plan =
        (fun ~n ~horizon ->
          Fault_plan.make ~replicas:net_replicas ~n ~horizon
            [
              slow ~pid:0 ~at:0;
              Fault_plan.Partition
                { at = horizon / 2; side = [ Fault_plan.Replica 2 ] };
            ]);
      c_expect_fail = baseline_systems;
    };
    {
      c_name = "net-client-cut";
      c_summary =
        "from h/2, client 1 is partitioned away from everyone forever:          its register operations stall on quorums (exempt — emergent          untimeliness), while every other client must keep its          guarantee; plus the slowdown control";
      c_atom = "partition";
      c_plan =
        (fun ~n ~horizon ->
          Fault_plan.make ~replicas:net_replicas ~n ~horizon
            [
              slow ~pid:0 ~at:0;
              Fault_plan.Partition
                { at = horizon / 2; side = [ Fault_plan.Client 1 ] };
            ]);
      c_expect_fail = baseline_systems;
    };
    {
      c_name = "net-delay-ramp";
      c_summary =
        "every link's latency ramps up by 0 to 3 extra steps from h/4 to          the horizon — registers get slower but stay timely, the          graceful half of emergent timeliness; plus the slowdown control";
      c_atom = "delay-ramp";
      c_plan =
        (fun ~n ~horizon ->
          Fault_plan.make ~replicas:net_replicas ~n ~horizon
            [
              slow ~pid:0 ~at:0;
              Fault_plan.Delay_ramp
                {
                  from = horizon / 4;
                  until = horizon;
                  extra0 = 0.0;
                  extra1 = 3.0;
                  node = None;
                };
            ]);
      c_expect_fail = baseline_systems;
    };
    {
      c_name = "net-drop-storm";
      c_summary =
        "messages drop with probability ramping 0.3 to 0.8 over [h/4,          3h/4), then the storm lifts — retransmissions carry the quorums          through; plus the slowdown control";
      c_atom = "drop";
      c_plan =
        (fun ~n ~horizon ->
          Fault_plan.make ~replicas:net_replicas ~n ~horizon
            [
              slow ~pid:0 ~at:0;
              Fault_plan.Drop
                {
                  from = horizon / 4;
                  until = 3 * horizon / 4;
                  rate0 = 0.3;
                  rate1 = 0.8;
                  node = None;
                };
            ]);
      c_expect_fail = baseline_systems;
    };
    {
      c_name = "net-replica-crash";
      c_summary =
        "replica 2 crashes at 3h/8: a minority crash the ABD emulation          tolerates by construction — quorums shrink to the live          majority; plus the slowdown control";
      c_atom = "crash-replica";
      c_plan =
        (fun ~n ~horizon ->
          Fault_plan.make ~replicas:net_replicas ~n ~horizon
            [
              slow ~pid:0 ~at:0;
              Fault_plan.Crash_replica { r = 2; at = 3 * horizon / 8 };
            ]);
      c_expect_fail = baseline_systems;
    };
  ]

let find name =
  List.find_opt
    (fun c -> String.equal c.c_name name)
    (catalogue @ net_catalogue)

(* --- running a campaign --------------------------------------------------- *)

type row = {
  row_system : system;
  row_expected_fail : bool;
  row_result : run_result;
  row_as_expected : bool;
}

type outcome = {
  o_campaign : t;
  o_plan : Fault_plan.t;
  o_rows : row list;
  o_ok : bool;  (** every system behaved as the campaign predicts *)
}

let dimensions ~quick = if quick then 4, 96_000 else 6, 480_000

let substrate_dimensions ?(substrate = System.Shared_memory) ~quick () =
  let n, horizon = dimensions ~quick in
  n, horizon * Cell_runner.cost_factor substrate

let row_of_result campaign result =
  let expected_fail = List.mem result.rr_system campaign.c_expect_fail in
  let holds = result.rr_verdict.Degradation.holds in
  {
    row_system = result.rr_system;
    row_expected_fail = expected_fail;
    row_result = result;
    row_as_expected = (if expected_fail then not holds else holds);
  }

let outcome_of campaign plan rows =
  {
    o_campaign = campaign;
    o_plan = plan;
    o_rows = rows;
    o_ok = List.for_all (fun r -> r.row_as_expected) rows;
  }

(* Run independent (plan, system) cells over [pool] (each builds its own
   stack, so nothing is shared); results come back in cell order at any
   domain count. *)
let run_cells ?substrate ?seed ?pool cells =
  let pool =
    Option.value pool ~default:(Tbwf_parallel.Pool.create ~domains:1 ())
  in
  let cells = Array.of_list cells in
  Tbwf_parallel.Pool.fold pool ~tasks:(Array.length cells)
    (fun i ->
      let plan, system = cells.(i) in
      run_plan ?substrate ?seed ~plan ~system ())
    ~init:[]
    (fun acc r -> r :: acc)
  |> List.rev

let run ?substrate ?(quick = true) ?seed ?pool
    ?(systems = all_systems) campaign =
  let n, horizon = substrate_dimensions ?substrate ~quick () in
  let plan = campaign.c_plan ~n ~horizon in
  run_cells ?substrate ?seed ?pool
    (List.map (fun system -> plan, system) systems)
  |> List.map (row_of_result campaign)
  |> outcome_of campaign plan

(* --- the full campaign × system matrix ------------------------------------ *)

type matrix = {
  m_outcomes : outcome list;
  m_ok : bool;
  m_telemetry : Tbwf_telemetry.Collector.t;
}

let run_matrix ?substrate ?pool ?(quick = true) ?seed
    ?(systems = all_systems) () =
  let n, horizon = substrate_dimensions ?substrate ~quick () in
  if systems = [] then invalid_arg "Campaign.run_matrix: no systems";
  (* On message passing the matrix gains the network axis: the stock
     campaigns re-run over emergent-timeliness registers, plus the
     network campaigns proper. Shared memory keeps the historical
     matrix exactly. *)
  let matrix_catalogue =
    match substrate with
    | None | Some System.Shared_memory -> catalogue
    | Some (System.Message_passing _) -> catalogue @ net_catalogue
  in
  (* One task per (campaign, system) cell, campaign-major — finer-grained
     than pooling [run] per campaign, so a slow cell doesn't serialize its
     whole campaign. Regrouping walks the same order, and the aggregate
     collector folds in that order too, so the matrix is byte-identical at
     any domain count. *)
  let plans = List.map (fun c -> c, c.c_plan ~n ~horizon) matrix_catalogue in
  let results =
    run_cells ?substrate ?seed ?pool
      (List.concat_map
         (fun (_, plan) -> List.map (fun system -> plan, system) systems)
         plans)
  in
  let per_campaign = List.length systems in
  let outcomes =
    List.mapi
      (fun i (campaign, plan) ->
        List.filteri (fun j _ -> j / per_campaign = i) results
        |> List.map (row_of_result campaign)
        |> outcome_of campaign plan)
      plans
  in
  let telemetry =
    List.map (fun r -> r.rr_telemetry) results
    |> Tbwf_telemetry.Collector.merge_all
  in
  {
    m_outcomes = outcomes;
    m_ok = List.for_all (fun o -> o.o_ok) outcomes;
    m_telemetry = telemetry;
  }

let pp_row fmt r =
  let v = r.row_result.rr_verdict in
  Fmt.pf fmt
    "%-16s %-6s expected %-6s %s  min tail ops %a  measured tail ops/pid %a  \
     leader epochs %d"
    (system_name r.row_system)
    (if v.Degradation.holds then "holds" else "FAILS")
    (if r.row_expected_fail then "FAILS" else "holds")
    (if r.row_as_expected then "[ok]" else "[UNEXPECTED]")
    Fmt.(option ~none:(any "-") int)
    (Degradation.min_timely_tail_ops v)
    Fmt.(brackets (array ~sep:comma int))
    r.row_result.rr_tail_ops
    (Tbwf_telemetry.Collector.leader_epochs r.row_result.rr_telemetry)

let pp_outcome fmt o =
  Fmt.pf fmt "campaign %s (%s atom): %s@,%a@,plan:@,%a"
    o.o_campaign.c_name o.o_campaign.c_atom
    (if o.o_ok then "as predicted" else "NOT as predicted")
    Fmt.(list ~sep:cut pp_row)
    o.o_rows Fault_plan.pp o.o_plan
