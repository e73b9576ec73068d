open Tbwf_sim
open Tbwf_monitor
open Tbwf_omega

type row = {
  window : int * int;
  dp_flips_slow : int;
  dp_crashed_suspected : bool;
  omega_leader_changes : int;
}

type result = {
  rows : row list;
  dp_never_stabilizes : bool;
  dp_complete : bool;
  omega_stabilizes : bool;
}

(* Shared scenario: n = 4. pid 0 decelerates forever (correct, not timely);
   pid 3 crashes at a quarter of the run; pids 1, 2 are timely observers. *)
let scenario_policy n =
  Policy.of_patterns
    (List.init n (fun pid ->
         if pid = 0 then
           pid, Policy.Slowing { initial_gap = 60; growth = 1.12; burst = 8 * n }
         else pid, Policy.Every { period = 2 * (n - 1); offset = 2 * (pid - 1) }))

let compute ?(quick = false) () =
  let n = 4 in
  let windows = 12 in
  let window_steps = if quick then 15_000 else 60_000 in
  let total = windows * window_steps in
  (* Run 1: ◊P. *)
  let rt = Runtime.create ~seed:131L ~n () in
  let dp = Eventually_perfect.install rt in
  Runtime.crash_at rt ~pid:3 ~step:(total / 4);
  let policy = scenario_policy n in
  (* Sample densely inside each window to count flips. *)
  let samples_per_window = 40 in
  let dp_rows = ref [] in
  for w = 0 to windows - 1 do
    let flips = ref 0 in
    let crashed_suspected = ref true in
    let previous = ref (Eventually_perfect.suspected dp ~pid:1 ~q:0) in
    for _ = 1 to samples_per_window do
      Runtime.run rt ~policy ~steps:(window_steps / samples_per_window);
      let now = Eventually_perfect.suspected dp ~pid:1 ~q:0 in
      if now <> !previous then incr flips;
      previous := now;
      if Runtime.now rt > total / 2 then
        if not (Eventually_perfect.suspected dp ~pid:1 ~q:3) then
          crashed_suspected := false
    done;
    dp_rows :=
      (w * window_steps, ((w + 1) * window_steps) - 1, !flips, !crashed_suspected)
      :: !dp_rows
  done;
  Runtime.stop rt;
  let dp_rows = List.rev !dp_rows in
  (* Run 2: Ω∆ on the same scenario shape (same policy, same crash). *)
  let rt = Runtime.create ~seed:131L ~n () in
  let om = Tbwf_system.System.install_atomic rt in
  Omega_scenarios.spawn_drivers rt om.Omega_registers.handles
    (Omega_scenarios.everyone_p ~n);
  Runtime.crash_at rt ~pid:3 ~step:(total / 4);
  let policy = scenario_policy n in
  let omega_rows = ref [] in
  for _w = 0 to windows - 1 do
    let changes = ref 0 in
    let previous = ref !(om.Omega_registers.handles.(1).Omega_spec.leader) in
    for _ = 1 to samples_per_window do
      Runtime.run rt ~policy ~steps:(window_steps / samples_per_window);
      let now = !(om.Omega_registers.handles.(1).Omega_spec.leader) in
      if not (Omega_spec.equal_view now !previous) then incr changes;
      previous := now
    done;
    omega_rows := !changes :: !omega_rows
  done;
  Runtime.stop rt;
  let omega_rows = List.rev !omega_rows in
  let rows =
    List.map2
      (fun (lo, hi, flips, crashed) changes ->
        {
          window = lo, hi;
          dp_flips_slow = flips;
          dp_crashed_suspected = crashed;
          omega_leader_changes = changes;
        })
      dp_rows omega_rows
  in
  (* Finite-run proxies. ◊P: the decelerating process's suspect/refute
     cycles get longer but never stop, so flips must still appear in the
     last quarter. Ω∆: its output changes are finite — punishments make
     them ever rarer — but a straggler can land arbitrarily late, so the
     honest check is the contrast: an order of magnitude fewer changes
     than ◊P's flips overall, and at most one change in the last quarter
     (vs ◊P still flipping there). *)
  let last_quarter = List.filteri (fun i _ -> i >= 3 * windows / 4) rows in
  let second_half = List.filteri (fun i _ -> i >= windows / 2) rows in
  let sum f rows = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let dp_total = sum (fun r -> r.dp_flips_slow) rows in
  let omega_total = sum (fun r -> r.omega_leader_changes) rows in
  let omega_late = sum (fun r -> r.omega_leader_changes) last_quarter in
  let dp_late = sum (fun r -> r.dp_flips_slow) last_quarter in
  {
    rows;
    dp_never_stabilizes =
      List.exists (fun r -> r.dp_flips_slow > 0) last_quarter;
    dp_complete = List.for_all (fun r -> r.dp_crashed_suspected) second_half;
    omega_stabilizes =
      omega_total * 5 <= dp_total && omega_late <= 1 && omega_late < dp_late;
  }

let report fmt result =
  let table =
    Table.create
      ~title:
        "E13: ◊P vs Ω∆ under partial timeliness — pid 0 decelerates forever, \
         pid 3 crashes; observer is timely pid 1"
      ~columns:
        [
          "steps";
          "◊P flips on slow pid";
          "◊P: crashed suspected";
          "Ω∆ leader changes";
        ]
  in
  List.iter
    (fun row ->
      let lo, hi = row.window in
      Table.add_row table
        [
          Fmt.str "%d-%d" lo hi;
          Table.cell_int row.dp_flips_slow;
          Table.cell_bool row.dp_crashed_suspected;
          Table.cell_int row.omega_leader_changes;
        ])
    result.rows;
  Table.print fmt table;
  Fmt.pf fmt
    "◊P keeps flip-flopping on the non-timely process (in the last quarter: \
     %s), stays complete on the crashed one (%s); Ω∆ stabilizes (%s)@."
    (Table.cell_bool result.dp_never_stabilizes)
    (Table.cell_bool result.dp_complete)
    (Table.cell_bool result.omega_stabilizes)
