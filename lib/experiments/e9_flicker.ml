type row = {
  implementation : string;
  elected : int option;
  elected_ok : bool;
  stabilization_step : int option;
  violations : string list;
}

type result = { n : int; rows : row list; all_pass : bool }

let compute ?(quick = false) () =
  let n = 8 in
  let classes =
    {
      Omega_scenarios.pcands = [ 0; 1; 2 ];
      rcands = [ 3; 4; 5 ];
      ncands = [ 6 ];
      untimely = [ 0 ];
      crashes = [];
    }
  in
  let segments = if quick then 12 else 30 in
  let segment_steps = if quick then 5_000 else 20_000 in
  let expected = [ 1; 2 ] in
  let run implementation system =
    let outcome =
      Omega_scenarios.run ~seed:91L ~n ~classes ~segments ~segment_steps
        ~rcand_phase:(if quick then 60 else 400)
        ~ncand_phase:(if quick then 80 else 600)
        system
    in
    let elected = outcome.verdict.Tbwf_omega.Omega_spec.elected in
    {
      implementation;
      elected;
      elected_ok =
        (match elected with Some e -> List.mem e expected | None -> false);
      stabilization_step = outcome.stabilization_step;
      violations = outcome.verdict.Tbwf_omega.Omega_spec.violations;
    }
  in
  let rows =
    [
      run "atomic registers (Fig. 3)" Tbwf_system.System.Tbwf_atomic;
      run "abortable registers (Figs. 4-6)" Tbwf_system.System.Tbwf_abortable;
    ]
  in
  { n; rows; all_pass = List.for_all (fun r -> r.elected_ok && r.violations = []) rows }

let report fmt result =
  let table =
    Table.create
      ~title:
        (Fmt.str
           "E9: flicker resilience — n=%d, P={0(untimely),1,2} R={3,4,5} \
            N={6,7}; expect a timely P-candidate elected" result.n)
      ~columns:
        [ "implementation"; "elected"; "in {1,2}"; "stable from step"; "violations" ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.implementation;
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
