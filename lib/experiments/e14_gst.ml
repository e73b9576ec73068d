open Tbwf_sim
open Tbwf_core
open Tbwf_objects

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
    Scenario.build ~seed:141L ~n ~omega:Scenario.Omega_atomic
      ~spec:Counter.spec
      ~next_op:(Workload.forever Counter.inc)
      ~client_pids:(List.init n Fun.id) ()
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
  let rows = ref [] in
  let previous = ref (Array.make n 0) in
  for w = 0 to windows - 1 do
    Runtime.run stack.Scenario.rt ~policy ~steps:window_steps;
    let now = Array.copy stack.Scenario.stats.Workload.completed in
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
  Runtime.stop stack.Scenario.rt;
  let rows = List.rev !rows in
  let last_quarter = List.filteri (fun i _ -> i >= 3 * windows / 4) rows in
  {
    gst;
    rows;
    steady_after_gst = List.for_all (fun r -> r.all_progressed) last_quarter;
  }

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
