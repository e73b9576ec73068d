(* Regenerates test/golden/system_fingerprints.txt: per-system trace
   fingerprints under representative schedules, built through the System
   registry. The committed goldens were captured from the pre-registry
   wiring, so this generator doubles as the refactor-equivalence proof —
   its output must match the file byte for byte.

   Usage: dune exec bin/gen_system_goldens.exe > test/golden/system_fingerprints.txt

   It always runs the reference backend; test_differential checks the
   compiled backend against the same file. *)

open Tbwf_sim
open Tbwf_experiments
open Tbwf_system

let n = 3
let steps = 4_000
let seed = 0x53595354L (* "SYST" *)

let policies =
  [
    "round-robin", (fun () -> Policy.round_robin ());
    "degraded", (fun () -> Scenario.degraded_policy ~n ~timely:[ 1; 2 ] ());
  ]

let () =
  List.iter
    (fun id ->
      List.iter
        (fun (pname, pol) ->
          let stack = System.build ~seed ~n id in
          let rt = stack.System.rt in
          Runtime.run rt ~policy:(pol ()) ~steps;
          Runtime.stop rt;
          let trace = Option.get stack.System.trace in
          let digest =
            Digest.to_hex (Digest.string (Trace.fingerprint trace))
          in
          Fmt.pr "%s %s %s@." (System.to_string id) pname digest)
        policies)
    System.all
