(* ASCII progress/leader timeline.

   One column per step window, one row per process plus a leader row:

     leader  ????00000000333333333333
     p0      @@@@@@@@  ..          X
     p1      @@@@@@@@@@@@@@@@@@@@@@@@
     ...

   The leader row shows the self-announced leader in effect at the end of
   each window ('?' before the first handoff). Process rows show
   completed-app-op density per window on the ramp [ .:-=+*#%@]: ' ' is
   zero, '@' is the busiest window of the whole run; an 'X' marks the
   window in which the process crashed. Wide runs are re-bucketed so the
   chart fits in [width] columns. *)

let ramp = " .:-=+*#%@"

type t = {
  columns : int;
  steps_per_col : int;  (* simulation steps represented by one column *)
  leader_row : string;
  pid_rows : string array;
  max_cell : int;  (* completions behind the densest cell *)
}

let densify cell max_cell =
  if cell <= 0 then ' '
  else begin
    let levels = String.length ramp - 1 in
    (* Nonzero cells never render as ' ': index 1..levels. *)
    let idx = 1 + (cell - 1) * (levels - 1) / max 1 (max_cell - 1) in
    ramp.[min levels idx]
  end

let build ?(width = 72) collector =
  let series = Collector.app_ops collector in
  let n = Collector.n collector in
  let window = Collector.window collector in
  let windows = max 1 (Series.windows series) in
  let per_col = (windows + width - 1) / width in
  let columns = (windows + per_col - 1) / per_col in
  let cell pid col =
    let row = Series.row series ~pid in
    let acc = ref 0 in
    for w = col * per_col to min windows (Array.length row) - 1 do
      if w < (col + 1) * per_col then acc := !acc + row.(w)
    done;
    !acc
  in
  let max_cell = ref 1 in
  for pid = 0 to n - 1 do
    for col = 0 to columns - 1 do
      max_cell := max !max_cell (cell pid col)
    done
  done;
  let crash_col =
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (step, pid) ->
        if not (Hashtbl.mem tbl pid) then
          Hashtbl.replace tbl pid (step / window / per_col))
      (Collector.crashes collector);
    tbl
  in
  let pid_rows =
    Array.init n (fun pid ->
        String.init columns (fun col ->
            match Hashtbl.find_opt crash_col pid with
            | Some c when col = c -> 'X'
            | Some c when col > c -> ' '
            | _ -> densify (cell pid col) !max_cell))
  in
  let leaders = Collector.leader_by_window collector in
  let leader_row =
    String.init columns (fun col ->
        (* Leader in effect at the end of the last window of this column. *)
        let w = min (Array.length leaders - 1) (((col + 1) * per_col) - 1) in
        match if w < 0 then None else leaders.(w) with
        | None -> '?'
        | Some l when l < 10 -> Char.chr (Char.code '0' + l)
        | Some l -> Char.chr (Char.code 'a' + ((l - 10) mod 26)))
  in
  {
    columns;
    steps_per_col = per_col * window;
    leader_row;
    pid_rows;
    max_cell = !max_cell;
  }

let pp fmt t =
  Fmt.pf fmt "one column = %d steps; '@@' = %d app ops/column@." t.steps_per_col
    t.max_cell;
  Fmt.pf fmt "%-7s %s@." "leader" t.leader_row;
  Array.iteri (fun pid row -> Fmt.pf fmt "p%-6d %s@." pid row) t.pid_rows
