open Tbwf_sim
open Tbwf_core
open Tbwf_system

type row = {
  system : string;
  solo_pid : int;
  ops_before_solo : int;
  ops_in_solo : int;
  solo_progress : bool;
}

type result = { n : int; rows : row list; all_pass : bool }

let run_one ~system ~n ~solo_pid ~contention_steps ~solo_steps ~seed ~id =
  let stack = System.build ~seed ~record_trace:false ~n id in
  let rt = stack.System.rt in
  let stats = stack.System.stats in
  let policy = Policy.solo_after ~n ~pid:solo_pid ~step:contention_steps in
  Runtime.run rt ~policy ~steps:contention_steps;
  let before = stats.Workload.completed.(solo_pid) in
  Runtime.run rt ~policy ~steps:solo_steps;
  Runtime.stop rt;
  let ops_in_solo = stats.Workload.completed.(solo_pid) - before in
  {
    system;
    solo_pid;
    ops_before_solo = before;
    ops_in_solo;
    solo_progress = ops_in_solo > 0;
  }

let compute ?(quick = false) () =
  let n = 4 in
  let contention_steps = if quick then 10_000 else 40_000 in
  let solo_steps = if quick then 20_000 else 60_000 in
  let pids = if quick then [ 0; 2 ] else List.init n Fun.id in
  let rows =
    List.concat_map
      (fun solo_pid ->
        [
          run_one ~system:"TBWF" ~n ~solo_pid ~contention_steps ~solo_steps
            ~seed:31L ~id:System.Tbwf_atomic;
          run_one ~system:"retry" ~n ~solo_pid ~contention_steps ~solo_steps
            ~seed:31L ~id:System.Retry;
        ])
      pids
  in
  { n; rows; all_pass = List.for_all (fun r -> r.solo_progress) rows }

let report fmt result =
  let table =
    Table.create
      ~title:
        (Fmt.str
           "E3: obstruction-freedom — n=%d, always-abort adversary; each row \
            gives one process a solo suffix" result.n)
      ~columns:
        [ "system"; "solo pid"; "ops before solo"; "ops in solo"; "progress" ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.system;
          Table.cell_int row.solo_pid;
          Table.cell_int row.ops_before_solo;
          Table.cell_int row.ops_in_solo;
          Table.cell_bool row.solo_progress;
        ])
    result.rows;
  Table.print fmt table
