(* E17: the degradation matrix over the message-passing substrate. The
   same campaign × system grid as E16, but the registers under the Ω∆ are
   ABD-style quorum emulations over the simulated crash-prone network
   (lib/net), so register timeliness is emergent — a property of the
   links and the live replica set — rather than assumed. The network
   campaign catalogue (partitions, heals, delay ramps, drop storms,
   replica crashes) drives the new axis; the checker exempts clients the
   plan cuts off from a live replica majority, and the paper systems must
   hold every cell for the clients that remain quorate. *)

open Tbwf_nemesis

type cell = E16_nemesis.cell = {
  holds : bool;
  as_expected : bool;
  min_tail_ops : int;  (* min ops over in-force processes, -1 if none *)
}

type row = {
  campaign : string;
  atom : string;
  exempt : int list;  (* clients the plan's emergent prediction exempts *)
  cells : (Tbwf_system.System.id * cell) list;
}

type result = {
  n : int;
  replicas : int;
  horizon : int;
  rows : row list;
  all_ok : bool;
}

let exempt_clients plan =
  match Fault_plan.emergent plan with
  | None -> []
  | Some em ->
    List.filter
      (fun c -> not (Tbwf_check.Degradation.emergent_quorate em c))
      (List.init (Fault_plan.n plan) Fun.id)

let compute ?(quick = false) () =
  let substrate =
    Tbwf_system.System.Message_passing Tbwf_net.Net.default_config
  in
  let n, horizon = Campaign.substrate_dimensions ~substrate ~quick () in
  let outcomes =
    List.map (Campaign.run ~quick ~substrate) Campaign.net_catalogue
  in
  let rows =
    List.map
      (fun (o : Campaign.outcome) ->
        {
          campaign = Campaign.name o.Campaign.o_campaign;
          atom = Campaign.headline_atom o.Campaign.o_campaign;
          exempt = exempt_clients o.Campaign.o_plan;
          cells =
            List.map
              (fun r -> (r.Campaign.row_system, E16_nemesis.cell_of_row r))
              o.Campaign.o_rows;
        })
      outcomes
  in
  {
    n;
    replicas = Campaign.net_replicas;
    horizon;
    rows;
    all_ok = List.for_all (fun o -> o.Campaign.o_ok) outcomes;
  }

let report fmt r =
  let table =
    Table.create
      ~title:
        (Fmt.str
           "E17: degradation over message passing (n=%d, %d replicas, \
            horizon=%d)"
           r.n r.replicas r.horizon)
      ~columns:
        ("campaign" :: "atom" :: "exempt"
        :: List.map Tbwf_system.System.to_string Tbwf_system.System.all)
  in
  List.iter
    (fun row ->
      Table.add_row table
        (row.campaign :: row.atom
        :: (match row.exempt with
           | [] -> "-"
           | cs -> String.concat "," (List.map string_of_int cs))
        :: E16_nemesis.system_columns row.cells))
    r.rows;
  Table.print fmt table;
  Fmt.pf fmt
    "registers are ABD quorum emulations over the simulated network; \
     'exempt' lists clients the plan cuts off from a live replica \
     majority (no guarantee in force for them); cells show verdict + min \
     tail ops over the clients that keep the guarantee; [!] marks a \
     verdict that contradicts the campaign's prediction@.";
  Fmt.pf fmt "matrix %s@."
    (if r.all_ok then "as predicted" else "NOT as predicted")
