(* What the command-line drivers share: their exit codes, the --jobs flag
   and whole-file reads and writes. *)

open Cmdliner

(* Bad input exits 2 whether cmdliner rejects it (an unknown flag, a
   malformed value, a missing argument) or a driver's own check does. *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:"when the run completes but a check it reports does not hold.";
    Cmd.Exit.info 2
      ~doc:
        "on bad input: an unknown flag or name, a malformed or rejected \
         value, or a missing argument. Nothing runs.";
    Cmd.Exit.info 125 ~doc:"on an unexpected internal error.";
  ]

let info name ~doc = Cmd.info name ~doc ~exits

let eval cmd =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)

(* A domain count below one is refused while parsing, before anything
   runs; [Pool.create] would clamp it. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok j when j < 1 -> Error (`Msg (Fmt.str "must be positive (got %d)" j))
    | result -> result
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let jobs what =
  Arg.(
    value
    & opt positive_int (Tbwf_parallel.Pool.default_domains ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          (Fmt.str
             "Domains to fan %s out over (stdout is byte-identical for any \
              value; 1 disables domains)."
             what))

let read_file path = In_channel.with_open_text path In_channel.input_all

let write_file path text =
  Out_channel.with_open_text path (fun oc -> output_string oc text)
