open Tbwf_sim
open Tbwf_registers

type policy_block = {
  policy_name : string;
  rows : E4_omega_atomic.row list;
  abort_rate : float;
}

type result = { blocks : policy_block list; all_pass : bool }

(* Characterize the policy itself: a writer and a reader hammering one
   abortable register under strict alternation, so every operation's window
   overlaps another operation. (Measuring on the Ω∆ mesh would understate
   hostility: the algorithm's adaptive read timeouts actively desynchronize
   readers from writers until collisions stop.) *)
let measure_abort_rate ~quick policy =
  let rt = Runtime.create ~seed:55L ~n:2 () in
  let reg =
    Abortable_reg.create rt ~name:"collide" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy ()
  in
  let ops = ref 0 and aborts = ref 0 in
  let count ok =
    incr ops;
    if not ok then incr aborts
  in
  Runtime.spawn rt ~pid:0 ~name:"writer" (fun () ->
      let k = ref 0 in
      while true do
        incr k;
        count (Abortable_reg.write reg !k)
      done);
  Runtime.spawn rt ~pid:1 ~name:"reader" (fun () ->
      while true do
        count (Option.is_some (Abortable_reg.read reg))
      done);
  Runtime.run rt
    ~policy:(Policy.round_robin ())
    ~steps:(if quick then 4_000 else 20_000);
  Runtime.stop rt;
  if !ops = 0 then 0.0 else float_of_int !aborts /. float_of_int !ops

let compute ?(quick = false) () =
  let policies =
    if quick then [ "always-on-overlap", Abort_policy.Always ]
    else
      [
        "always-on-overlap", Abort_policy.Always;
        "random(0.9)", Abort_policy.Random 0.9;
        "random(0.5)", Abort_policy.Random 0.5;
      ]
  in
  let blocks =
    List.map
      (fun (policy_name, policy) ->
        {
          policy_name;
          rows =
            E4_omega_atomic.scenario_rows ~mesh_policy:policy ~quick
              Tbwf_system.System.Tbwf_abortable;
          abort_rate = measure_abort_rate ~quick policy;
        })
      policies
  in
  {
    blocks;
    all_pass =
      List.for_all
        (fun b ->
          List.for_all
            (fun (r : E4_omega_atomic.row) ->
              r.E4_omega_atomic.elected_ok && r.E4_omega_atomic.violations = [])
            b.rows)
        blocks;
  }

let report fmt result =
  List.iter
    (fun block ->
      let table =
        Table.create
          ~title:
            (Fmt.str
               "E5: Ω∆ from abortable registers (Figures 4–6) — abort policy \
                %s (measured mesh abort rate %.1f%%)"
               block.policy_name (100.0 *. block.abort_rate))
          ~columns:
            [ "scenario"; "n"; "elected"; "in expected set"; "stable from step"; "violations" ]
      in
      List.iter
        (fun (row : E4_omega_atomic.row) ->
          Table.add_row table
            [
              row.E4_omega_atomic.scenario;
              Table.cell_int row.E4_omega_atomic.n;
              (match row.E4_omega_atomic.elected with
              | Some e -> Table.cell_int e
              | None -> "-");
              Table.cell_bool row.E4_omega_atomic.elected_ok;
              (match row.E4_omega_atomic.stabilization_step with
              | Some s -> Table.cell_int s
              | None -> "-");
              (match row.E4_omega_atomic.violations with
              | [] -> "none"
              | vs -> Fmt.str "%d: %s" (List.length vs) (List.hd vs));
            ])
        block.rows;
      Table.print fmt table)
    result.blocks
