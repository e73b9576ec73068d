type row = {
  scenario : string;
  n : int;
  elected : int option;
  elected_ok : bool;
  stabilization_step : int option;
  violations : string list;
}

type result = { rows : row list; all_pass : bool }

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let row_of_outcome ~scenario ~n ~expected (outcome : Omega_scenarios.outcome) =
  let elected = outcome.verdict.Tbwf_omega.Omega_spec.elected in
  {
    scenario;
    n;
    elected;
    elected_ok =
      (match elected with Some e -> List.mem e expected | None -> false);
    stabilization_step = outcome.stabilization_step;
    violations = outcome.verdict.Tbwf_omega.Omega_spec.violations;
  }

let scenario_rows ?mesh_policy ~quick system =
  let segments = if quick then 12 else 30 in
  let segment_steps = if quick then 4_000 else 10_000 in
  let run ~n ~classes =
    Omega_scenarios.run ?mesh_policy ~segments ~segment_steps
      ~rcand_phase:(if quick then 60 else 400)
      ~ncand_phase:(if quick then 80 else 600)
      ~n ~classes system
  in
  let all_timely n =
    let classes = Omega_scenarios.everyone_p ~n in
    let outcome = run ~n ~classes in
    row_of_outcome ~scenario:(Fmt.str "all timely, n=%d" n) ~n
      ~expected:(range 0 (n - 1)) outcome
  in
  let untimely_min_pid =
    let n = 4 in
    let classes =
      { (Omega_scenarios.everyone_p ~n) with untimely = [ 0 ] }
    in
    let outcome = run ~n ~classes in
    row_of_outcome ~scenario:"pid 0 flickers (not timely)" ~n
      ~expected:(range 1 (n - 1)) outcome
  in
  let mixed_classes =
    let n = 6 in
    let classes =
      {
        Omega_scenarios.pcands = [ 0; 1; 2 ];
        rcands = [ 3; 4 ];
        ncands = [ 5 ];
        untimely = [ 0 ];
        crashes = [];
      }
    in
    let outcome = run ~n ~classes in
    row_of_outcome ~scenario:"P={0u,1,2} R={3,4} N={5}" ~n ~expected:[ 1; 2 ]
      outcome
  in
  let leader_crash =
    let n = 4 in
    (* With equal counters the initial leader is pid 0; crash it mid-run. *)
    let classes =
      {
        (Omega_scenarios.everyone_p ~n) with
        Omega_scenarios.crashes = [ 0, (segments * segment_steps) / 3 ];
      }
    in
    let outcome = run ~n ~classes in
    row_of_outcome ~scenario:"leader (pid 0) crashes" ~n
      ~expected:(range 1 (n - 1)) outcome
  in
  let sizes = if quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  List.map all_timely sizes
  @ [ untimely_min_pid; mixed_classes; leader_crash ]

let compute ?(quick = false) () =
  let rows = scenario_rows ~quick Tbwf_system.System.Tbwf_atomic in
  {
    rows;
    all_pass =
      List.for_all (fun r -> r.elected_ok && r.violations = []) rows;
  }

let report fmt result =
  let table =
    Table.create
      ~title:
        "E4: dynamic leader election from atomic registers (Figure 3) — \
         Definition 5 / Theorem 7 checks"
      ~columns:
        [ "scenario"; "n"; "elected"; "in expected set"; "stable from step"; "violations" ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.scenario;
          Table.cell_int row.n;
          (match row.elected with Some e -> Table.cell_int e | None -> "-");
          Table.cell_bool row.elected_ok;
          (match row.stabilization_step with
          | Some s -> Table.cell_int s
          | None -> "-");
          (match row.violations with
          | [] -> "none"
          | vs -> Fmt.str "%d: %s" (List.length vs) (List.hd vs));
        ])
    result.rows;
  Table.print fmt table
