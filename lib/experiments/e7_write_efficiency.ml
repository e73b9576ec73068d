open Tbwf_sim
open Tbwf_omega

type window = { from_step : int; to_step : int; writers : int list }

type result = {
  n : int;
  elected : int option;
  rcands : int list;
  windows : window list;
  final_writers_ok : bool;
}

let compute ?(quick = false) () =
  let n = 6 in
  let rcands = [ 4 ] in
  let classes =
    {
      Omega_scenarios.pcands = [ 0; 1; 2; 3 ];
      rcands;
      ncands = [ 5 ];
      untimely = [];
      crashes = [];
    }
  in
  let segments = if quick then 10 else 20 in
  let segment_steps = if quick then 5_000 else 20_000 in
  let rt = Runtime.create ~seed:77L ~n () in
  let trace = Trace.create () in
  Runtime.set_sink rt (Trace.recorder trace);
  let handles = Tbwf_system.System.omega rt Tbwf_system.System.Tbwf_atomic in
  (* The scenario drivers, on our own runtime so the trace can be read. *)
  Omega_scenarios.spawn_drivers rt handles classes;
  let policy = Policy.round_robin () in
  Runtime.run rt ~policy ~steps:(segments * segment_steps);
  let elected =
    match !(handles.(0).Omega_spec.leader) with
    | Omega_spec.Leader l -> Some l
    | Omega_spec.No_leader -> None
  in
  Runtime.stop rt;
  let windows =
    List.init segments (fun seg ->
        let from_step = seg * segment_steps in
        let to_step = ((seg + 1) * segment_steps) - 1 in
        let counts = Trace.writes_in_window trace ~obj_prefix:"" ~from_step ~to_step in
        let writers =
          Hashtbl.fold (fun pid _count acc -> pid :: acc) counts []
          |> List.sort compare
        in
        { from_step; to_step; writers })
  in
  let allowed =
    match elected with Some l -> l :: rcands | None -> rcands
  in
  let last = List.nth windows (List.length windows - 1) in
  {
    n;
    elected;
    rcands;
    windows;
    final_writers_ok =
      List.for_all (fun w -> List.mem w allowed) last.writers;
  }

let report fmt result =
  let table =
    Table.create
      ~title:
        (Fmt.str
           "E7: write-efficiency of Ω∆ from registers — n=%d, P={0,1,2,3} \
            R={%s} N={5}; eventual writers must be {leader} ∪ R (leader: %a)"
           result.n
           (Table.cell_ints result.rcands)
           Fmt.(option ~none:(any "?") int)
           result.elected)
      ~columns:[ "steps"; "distinct writers"; "writer pids" ]
  in
  List.iter
    (fun w ->
      Table.add_row table
        [
          Fmt.str "%d-%d" w.from_step w.to_step;
          Table.cell_int (List.length w.writers);
          Table.cell_ints w.writers;
        ])
    result.windows;
  Table.print fmt table;
  Fmt.pf fmt "final window writers within {leader} ∪ R: %s@."
    (Table.cell_bool result.final_writers_ok)
