open Tbwf_core
open Tbwf_objects
module Degradation = Tbwf_check.Degradation
module System = Tbwf_system.System

type row = {
  k : int;
  timely_min : int;
  timely_mean : float;
  untimely_mean : float;
  timely_rate : float;
      (* measured mean completions per telemetry window (1024 steps) per
         timely process, from the attached collector's rate series *)
  leader_epochs : int;
  tbwf_holds : bool;
  lock_free : bool;
}

type result = { n : int; steps : int; rows : row list }

let mean = function
  | [] -> 0.0
  | xs -> float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)

let run_config ~n ~steps ~k ~seed =
  (* Untimely processes get the low pids: they would win every pid
     tie-break, so this is the adversarial placement. *)
  let timely = List.init k (fun i -> n - 1 - i) in
  let stack =
    System.build ~seed ~n ~spec:Counter.spec
      ~next_op:(Workload.forever Counter.inc)
      ~client_pids:(List.init n Fun.id) System.Tbwf_atomic
  in
  let policy = Scenario.degraded_policy ~n ~timely in
  let telemetry = Tbwf_telemetry.Collector.attach stack.System.rt in
  let rt = stack.System.rt in
  Tbwf_sim.Runtime.run rt ~policy ~steps:(steps / 2);
  let from = Tbwf_sim.Runtime.now rt in
  let mid = Array.copy stack.System.stats.Workload.completed in
  Tbwf_sim.Runtime.run rt ~policy ~steps:(steps / 2);
  let verdict =
    Degradation.check
      ~min_ops:
        (Degradation.required_tail_ops ~cost:1 ~n
           ~tail:(Tbwf_sim.Runtime.now rt - from))
      ~prediction:(Scenario.degraded_prediction ~n ~timely ~from)
      ~trace:(Option.get stack.System.trace) ~completed_before:mid
      ~completed_after:stack.System.stats.Workload.completed ()
  in
  Tbwf_sim.Runtime.stop rt;
  let completed pid = stack.System.stats.Workload.completed.(pid) in
  let timely_counts = List.map completed timely in
  let untimely_counts =
    List.filter_map
      (fun pid -> if List.mem pid timely then None else Some (completed pid))
      (List.init n Fun.id)
  in
  let series = Tbwf_telemetry.Collector.app_ops telemetry in
  let timely_rate =
    match timely with
    | [] -> 0.0
    | pids ->
      List.fold_left
        (fun acc pid -> acc +. Tbwf_telemetry.Series.mean_per_window series ~pid)
        0.0 pids
      /. float_of_int (List.length pids)
  in
  {
    k;
    timely_min = List.fold_left min max_int (max_int :: timely_counts);
    timely_mean = mean timely_counts;
    untimely_mean = mean untimely_counts;
    timely_rate;
    leader_epochs = Tbwf_telemetry.Collector.leader_epochs telemetry;
    tbwf_holds = verdict.Degradation.holds;
    (* Lock-freedom (section 1.1) is not Definition 3, so the degradation
       verdict does not decide it: someone completed an operation in the
       second half. *)
    lock_free =
      Array.exists2
        (fun before after -> after > before)
        mid stack.System.stats.Workload.completed;
  }

let compute ?(quick = false) () =
  let n = if quick then 4 else 8 in
  let steps = if quick then 60_000 else 240_000 in
  let rows =
    List.init (n + 1) (fun k ->
        run_config ~n ~steps ~k ~seed:(Int64.of_int (1000 + k)))
  in
  { n; steps; rows }

let report fmt result =
  let table =
    Table.create
      ~title:
        (Fmt.str
           "E1: graceful degradation — TBWF counter, n=%d, %d steps, k timely \
            processes vs (n-k) decelerating"
           result.n result.steps)
      ~columns:
        [
          "k";
          "timely min ops";
          "timely mean";
          "untimely mean";
          "ops/win (timely)";
          "leader epochs";
          "TBWF";
          "lock-free";
        ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          Table.cell_int row.k;
          (if row.k = 0 then "-" else Table.cell_int row.timely_min);
          (if row.k = 0 then "-" else Table.cell_float row.timely_mean);
          (if row.k = result.n then "-" else Table.cell_float row.untimely_mean);
          (if row.k = 0 then "-" else Table.cell_float row.timely_rate);
          Table.cell_int row.leader_epochs;
          Table.cell_bool row.tbwf_holds;
          Table.cell_bool row.lock_free;
        ])
    result.rows;
  Table.print fmt table
