(* Run the experiment suite: all tables from EXPERIMENTS.md, or a single
   experiment by id. Each experiment renders into its own buffer — one
   pool task per experiment — and the buffers print in registry order, so
   stdout is byte-identical at any --jobs value. Wall-clock timings go to
   stderr (they vary run to run by nature). *)

open Cmdliner

let run quick jobs ids =
  let open Tbwf_experiments in
  let unknown = List.filter (fun id -> Option.is_none (Registry.find id)) ids in
  if unknown <> [] then begin
    let known_ids = List.map (fun e -> e.Registry.id) Registry.all in
    List.iter
      (fun id ->
        Fmt.epr "unknown experiment %S (known: %s)@." id
          (String.concat " " known_ids))
      unknown;
    2
  end
  else
  let entries =
    if ids = [] then Registry.all else List.filter_map Registry.find ids
  in
  let fmt = Fmt.stdout in
  let pool = Tbwf_parallel.Pool.create ~domains:jobs () in
  let results =
    Tbwf_parallel.Pool.map pool (Array.of_list entries) (fun entry ->
        let buf = Buffer.create 4096 in
        let bfmt = Format.formatter_of_buffer buf in
        let start = Unix.gettimeofday () in
        entry.Registry.run ~quick bfmt;
        Format.pp_print_flush bfmt ();
        Buffer.contents buf, Unix.gettimeofday () -. start)
  in
  let total = ref 0.0 in
  List.iteri
    (fun i entry ->
      let body, elapsed = results.(i) in
      Fmt.pf fmt "@.=== %s: %s ===@." entry.Registry.id entry.Registry.title;
      Fmt.pf fmt "%s" body;
      Fmt.epr "[%s: %.2fs]@." entry.Registry.id elapsed;
      total := !total +. elapsed)
    entries;
  if List.length entries > 1 then Fmt.epr "[total: %.2fs]@." !total;
  Fmt.flush fmt ();
  0

let quick =
  let doc = "Run smaller configurations (seconds instead of minutes)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let jobs = Cli.jobs "experiments"

let ids =
  let doc = "Experiment ids to run (default: every registered experiment)." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let cmd =
  let doc = "regenerate the TBWF evaluation tables" in
  let info = Cli.info "experiments" ~doc in
  Cmd.v info Term.(const run $ quick $ jobs $ ids)

let () = Cli.eval cmd
