(* E16: the Nemesis degradation matrix. Runs the whole fault-injection
   campaign catalogue (lib/nemesis) against every system — the paper's
   three algorithm stacks plus the two baselines — and checks each verdict
   of the graceful-degradation checker against the campaign's prediction:
   paper systems keep every predicted-timely process progressing at the
   required tail rate, baselines do not. *)

open Tbwf_nemesis

type cell = {
  holds : bool;
  as_expected : bool;
  min_tail_ops : int;  (* min ops over predicted-timely processes, -1 if none *)
}

type row = {
  campaign : string;
  atom : string;
  tail_steps : int;
  min_ops : int;  (* the rate floor the verdicts were judged against *)
  cells : (Tbwf_system.System.id * cell) list;
}

type result = { n : int; horizon : int; rows : row list; all_ok : bool }

let cell_of_row (r : Campaign.row) =
  let v = r.Campaign.row_result.Campaign.rr_verdict in
  {
    holds = v.Tbwf_check.Degradation.holds;
    as_expected = r.Campaign.row_as_expected;
    min_tail_ops =
      Option.value ~default:(-1)
        (Tbwf_check.Degradation.min_timely_tail_ops v);
  }

(* One column per system: verdict, min tail ops, and [!] when the
   verdict contradicts the campaign's prediction. E17 prints the same. *)
let system_columns cells =
  List.map
    (fun system ->
      match List.assoc_opt system cells with
      | None -> "-"
      | Some c ->
        Fmt.str "%s %d%s"
          (if c.holds then "holds" else "fails")
          c.min_tail_ops
          (if c.as_expected then "" else " [!]"))
    Tbwf_system.System.all

let compute ?(quick = false) () =
  let n, horizon = Campaign.dimensions ~quick in
  let outcomes = List.map (Campaign.run ~quick) Campaign.catalogue in
  let rows =
    List.map
      (fun (o : Campaign.outcome) ->
        let result = (List.hd o.Campaign.o_rows).Campaign.row_result in
        {
          campaign = Campaign.name o.Campaign.o_campaign;
          atom = Campaign.headline_atom o.Campaign.o_campaign;
          tail_steps = result.Campaign.rr_tail_steps;
          min_ops = result.Campaign.rr_min_ops;
          cells =
            List.map
              (fun r -> (r.Campaign.row_system, cell_of_row r))
              o.Campaign.o_rows;
        })
      outcomes
  in
  {
    n;
    horizon;
    rows;
    all_ok = List.for_all (fun o -> o.Campaign.o_ok) outcomes;
  }

let report fmt r =
  let table =
    Table.create
      ~title:
        (Fmt.str "E16: Nemesis degradation matrix (n=%d, horizon=%d)" r.n
           r.horizon)
      ~columns:
        ("campaign" :: "atom" :: "floor"
        :: List.map Tbwf_system.System.to_string Tbwf_system.System.all)
  in
  List.iter
    (fun row ->
      Table.add_row table
        (row.campaign :: row.atom
        :: Table.cell_int row.min_ops
        :: system_columns row.cells))
    r.rows;
  Table.print fmt table;
  Fmt.pf fmt
    "cells show verdict + min tail ops per predicted-timely process \
     (floor = required ops over the %d-step tail); [!] marks a verdict \
     that contradicts the campaign's prediction@."
    (match r.rows with row :: _ -> row.tail_steps | [] -> 0);
  Fmt.pf fmt "matrix %s@."
    (if r.all_ok then "as predicted" else "NOT as predicted")
