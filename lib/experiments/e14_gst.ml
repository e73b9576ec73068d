open Tbwf_sim
open Tbwf_core
open Tbwf_objects
module Degradation = Tbwf_check.Degradation
module System = Tbwf_system.System

type row = {
  window : int * int;
  per_pid : int array;
  all_progressed : bool;
}

type result = { gst : int; rows : row list; steady_after_gst : bool }

let compute ?(quick = false) () =
  let n = 4 in
  let windows = 12 in
  let window_steps = if quick then 12_000 else 50_000 in
  let total = windows * window_steps in
  let gst = total / 2 in
  let stack =
    System.build ~seed:141L ~n ~spec:Counter.spec
      ~next_op:(Workload.forever Counter.inc)
      ~client_pids:(List.init n Fun.id) System.Tbwf_atomic
  in
  (* Before GST: everyone flickers with growing sleeps, staggered so that
     no process keeps a bounded gap. After GST: deterministic interleave. *)
  let policy =
    Policy.of_patterns
      (List.init n (fun pid ->
           ( pid,
             Policy.Switch_at
               ( gst,
                 Policy.Flicker
                   {
                     active = 400 + (137 * pid);
                     sleep = 900 + (211 * pid);
                     growth = 1.3;
                   },
                 Policy.Every { period = 2 * n; offset = 2 * pid } ) )))
  in
  (* The verdict: Definition 3 over the last quarter, every pid timely. *)
  let tail_from = 3 * windows / 4 in
  let rows = ref [] in
  let previous = ref (Array.make n 0) in
  let before = ref !previous in
  for w = 0 to windows - 1 do
    if w = tail_from then before := !previous;
    Runtime.run stack.System.rt ~policy ~steps:window_steps;
    let now = Array.copy stack.System.stats.Workload.completed in
    let delta = Array.mapi (fun i c -> c - !previous.(i)) now in
    previous := now;
    rows :=
      {
        window = w * window_steps, ((w + 1) * window_steps) - 1;
        per_pid = delta;
        all_progressed = Array.for_all (fun d -> d > 0) delta;
      }
      :: !rows
  done;
  let from = tail_from * window_steps in
  let verdict =
    Degradation.check
      ~min_ops:(Degradation.required_tail_ops ~cost:1 ~n ~tail:(total - from))
      ~prediction:
        (Scenario.degraded_prediction ~n ~timely:(List.init n Fun.id) ~from)
      ~trace:(Option.get stack.System.trace) ~completed_before:!before
      ~completed_after:stack.System.stats.Workload.completed ()
  in
  Runtime.stop stack.System.rt;
  { gst; rows = List.rev !rows; steady_after_gst = verdict.Degradation.holds }

let report fmt result =
  let table =
    Table.create
      ~title:
        (Fmt.str
           "E14: eventual timeliness — nobody timely before GST (step %d), \
            everyone after; TBWF counter ops per window" result.gst)
      ~columns:[ "steps"; "ops per pid"; "phase"; "all progressed" ]
  in
  List.iter
    (fun row ->
      let lo, hi = row.window in
      Table.add_row table
        [
          Fmt.str "%d-%d" lo hi;
          Table.cell_ints (Array.to_list row.per_pid);
          (if hi < result.gst then "chaos" else "post-GST");
          Table.cell_bool row.all_progressed;
        ])
    result.rows;
  Table.print fmt table;
  Fmt.pf fmt "steady universal progress in the last quarter: %s@."
    (Table.cell_bool result.steady_after_gst)
