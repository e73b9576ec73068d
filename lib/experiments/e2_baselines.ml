open Tbwf_sim
open Tbwf_core
open Tbwf_system

type row = {
  system : string;
  timely_total : int;
  untimely_total : int;
  first_segment : int;
  last_segment : int;
}

type result = { n : int; segments : int; segment_steps : int; rows : row list }

let sum_pids stats pids =
  List.fold_left (fun acc pid -> acc + stats.Workload.completed.(pid)) 0 pids

let run_system ~system ~n ~segments ~segment_steps ~seed ~id =
  let stack = System.build ~seed ~record_trace:false ~n id in
  let rt = stack.System.rt in
  let stats = stack.System.stats in
  let timely = List.init (n - 1) (fun i -> i + 1) in
  let policy = Scenario.degraded_policy ~n ~timely in
  let segment_totals = ref [] in
  let previous = ref 0 in
  for _seg = 1 to segments do
    Runtime.run rt ~policy ~steps:segment_steps;
    let now = sum_pids stats timely in
    segment_totals := (now - !previous) :: !segment_totals;
    previous := now
  done;
  Runtime.stop rt;
  let totals = List.rev !segment_totals in
  {
    system;
    timely_total = sum_pids stats timely;
    untimely_total = stats.Workload.completed.(0);
    first_segment = List.nth totals 0;
    last_segment = List.nth totals (List.length totals - 1);
  }

let compute ?(quick = false) () =
  let n = if quick then 4 else 6 in
  let segments = if quick then 4 else 8 in
  let segment_steps = if quick then 15_000 else 60_000 in
  let rows =
    [
      run_system ~system:"TBWF (this paper)" ~n ~segments ~segment_steps
        ~seed:21L ~id:System.Tbwf_atomic;
      run_system ~system:"naive booster [7,8,11]" ~n ~segments ~segment_steps
        ~seed:21L ~id:System.Naive_booster;
      run_system ~system:"obstruction-free retry" ~n ~segments ~segment_steps
        ~seed:21L ~id:System.Retry;
    ]
  in
  { n; segments; segment_steps; rows }

let report fmt result =
  let table =
    Table.create
      ~title:
        (Fmt.str
           "E2: degradation under one non-timely process — n=%d, %d segments \
            of %d steps (timely ops should stay steady only for TBWF)"
           result.n result.segments result.segment_steps)
      ~columns:
        [
          "system";
          "timely ops (total)";
          "untimely ops";
          "timely ops seg#1";
          "timely ops seg#last";
        ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.system;
          Table.cell_int row.timely_total;
          Table.cell_int row.untimely_total;
          Table.cell_int row.first_segment;
          Table.cell_int row.last_segment;
        ])
    result.rows;
  Table.print fmt table
