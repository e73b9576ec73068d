(* Golden scenario corpus: each test/corpus/NNN_<name>/ directory pins one
   CLI invocation (`cmd`, one line of "<exe> <args>") and its exact stdout
   (`expected.out`). The runner executes every entry in order and diffs;
   `--bless` rewrites the expected files from the current output instead.

   An optional `exit` file pins a nonzero expected exit code (default 0).
   stderr is dropped: it carries wall-clock timings and progress chatter,
   which are not part of the contract. Entries must only use
   deterministic subcommands (fixed seeds, --jobs 1 or byte-identical
   fan-out) — a flaky entry is a bug in the entry, not the runner. *)

let bless = Array.exists (String.equal "--bless") Sys.argv

let corpus_root =
  (* dune runtest runs with cwd = _build/default/test; `dune exec
     test/test_corpus.exe` from the repo root does not. *)
  let is_dir d = Sys.file_exists d && Sys.is_directory d in
  match List.find_opt is_dir [ "corpus"; "test/corpus" ] with
  | Some d -> d
  | None ->
    prerr_endline "corpus directory not found";
    exit 2

let exe_path name =
  (* Drivers live in bin/, the stand-alone demos in examples/. *)
  let candidates =
    List.concat_map
      (fun dir ->
        [
          Filename.concat (Filename.concat ".." dir) (name ^ ".exe");
          Filename.concat dir (name ^ ".exe");
          Filename.concat (Filename.concat "_build/default" dir) (name ^ ".exe");
        ])
      [ "bin"; "examples" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None ->
    Printf.eprintf "executable %s not found (looked at %s)\n" name
      (String.concat ", " candidates);
    exit 2

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_output cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  Buffer.contents buf, code

let first_diff_line a b =
  let la = String.split_on_char '\n' a in
  let lb = String.split_on_char '\n' b in
  let rec walk i = function
    | [], [] -> None
    | x :: la, y :: lb when String.equal x y -> walk (i + 1) (la, lb)
    | x :: _, y :: _ -> Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end>")
    | [], y :: _ -> Some (i, "<end>", y)
  in
  walk 1 (la, lb)

let run_entry dir =
  let path f = Filename.concat (Filename.concat corpus_root dir) f in
  let cmd_line = String.trim (read_file (path "cmd")) in
  let exe, args =
    match String.index_opt cmd_line ' ' with
    | Some i ->
      ( String.sub cmd_line 0 i,
        String.sub cmd_line (i + 1) (String.length cmd_line - i - 1) )
    | None -> cmd_line, ""
  in
  let command = Printf.sprintf "%s %s 2>/dev/null" (exe_path exe) args in
  let output, code = read_output command in
  let expected_code =
    if Sys.file_exists (path "exit") then
      int_of_string (String.trim (read_file (path "exit")))
    else 0
  in
  if bless then begin
    write_file (path "expected.out") output;
    Printf.printf "blessed  %s\n" dir;
    true
  end
  else begin
    let expected =
      if Sys.file_exists (path "expected.out") then
        read_file (path "expected.out")
      else "<missing expected.out — run with --bless>"
    in
    let ok_out = String.equal output expected in
    let ok_code = code = expected_code in
    if ok_out && ok_code then begin
      Printf.printf "ok       %s\n" dir;
      true
    end
    else begin
      Printf.printf "MISMATCH %s\n" dir;
      if not ok_code then
        Printf.printf "  exit code %d, expected %d\n" code expected_code;
      (match first_diff_line expected output with
      | Some (line, e, a) ->
        Printf.printf "  line %d:\n  - %s\n  + %s\n" line e a
      | None -> ());
      false
    end
  end

let () =
  let entries =
    Sys.readdir corpus_root |> Array.to_list
    |> List.filter (fun d ->
           Sys.is_directory (Filename.concat corpus_root d))
    |> List.sort String.compare
  in
  if entries = [] then begin
    prerr_endline "corpus is empty";
    exit 2
  end;
  let results = List.map run_entry entries in
  let failed = List.length (List.filter not results) in
  Printf.printf "%d/%d corpus entries %s\n"
    (List.length results - failed)
    (List.length results)
    (if bless then "blessed" else "match");
  if failed > 0 then exit 1
