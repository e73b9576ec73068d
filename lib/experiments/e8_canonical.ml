open Tbwf_sim
open Tbwf_core
open Tbwf_objects
module System = Tbwf_system.System

type row = {
  variant : string;
  per_pid : int array;
  min_ops : int;
  max_ops : int;
  fairness : float;
}

type result = { n : int; rows : row list; canonical_fairer : bool }

let run_variant ~variant ~canonical ~n ~steps ~seed =
  let stack =
    System.build ~seed ~record_trace:false ~canonical ~n ~spec:Counter.spec
      ~next_op:(Workload.forever Counter.inc)
      ~client_pids:(List.init n Fun.id) System.Tbwf_atomic
  in
  Runtime.run stack.System.rt ~policy:(Policy.round_robin ()) ~steps;
  Runtime.stop stack.System.rt;
  let per_pid = Array.copy stack.System.stats.Workload.completed in
  let min_ops = Array.fold_left min max_int per_pid in
  let max_ops = Array.fold_left max 0 per_pid in
  {
    variant;
    per_pid;
    min_ops;
    max_ops;
    fairness =
      (if max_ops = 0 then 0.0 else float_of_int min_ops /. float_of_int max_ops);
  }

let compute ?(quick = false) () =
  let n = 4 in
  let steps = if quick then 60_000 else 200_000 in
  let canonical =
    run_variant ~variant:"canonical (Figure 7 as printed)" ~canonical:true ~n
      ~steps ~seed:81L
  in
  let non_canonical =
    run_variant ~variant:"non-canonical (line 2 removed)" ~canonical:false ~n
      ~steps ~seed:81L
  in
  {
    n;
    rows = [ canonical; non_canonical ];
    canonical_fairer = canonical.fairness > non_canonical.fairness;
  }

let report fmt result =
  let table =
    Table.create
      ~title:
        (Fmt.str
           "E8: canonical use of Ω∆ — n=%d all-timely endless increments; \
            fairness = min/max completions" result.n)
      ~columns:[ "variant"; "per-pid ops"; "min"; "max"; "fairness" ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.variant;
          Table.cell_ints (Array.to_list row.per_pid);
          Table.cell_int row.min_ops;
          Table.cell_int row.max_ops;
          Table.cell_float row.fairness;
        ])
    result.rows;
  Table.print fmt table;
  Fmt.pf fmt "canonical variant fairer: %s@."
    (Table.cell_bool result.canonical_fairer)
