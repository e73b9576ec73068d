(* Regenerates test/golden/system_fingerprints.txt: per-system trace
   fingerprints under representative schedules, built through the System
   registry, on both substrates. The shared-memory goldens were captured
   from the pre-registry wiring, so this generator doubles as the
   refactor-equivalence proof — its output must match the file byte for
   byte.

   Usage: dune exec bin/gen_system_goldens.exe > test/golden/system_fingerprints.txt

   A shared-memory line is [system policy digest]. A message-passing line
   is [system policy message-passing digest]: the stack runs over the
   default network config, its replicas appended after the [n] clients,
   for [mp_steps] steps. The degraded policy there keeps every replica
   timely, so the Ω∆ registers answer and the cell does more than
   retransmit. *)

open Tbwf_sim
open Tbwf_experiments
open Tbwf_system

let n = 3
let steps = 4_000
let mp_steps = 20_000
let seed = 0x53595354L (* "SYST" *)
let mp_config = Tbwf_net.Net.default_config
let replicas = mp_config.Tbwf_net.Net.replicas

let policies ~substrate =
  match substrate with
  | System.Shared_memory ->
    [
      "round-robin", (fun () -> Policy.round_robin ());
      "degraded", (fun () -> Scenario.degraded_policy ~n ~timely:[ 1; 2 ]);
    ]
  | System.Message_passing _ ->
    [
      "round-robin", (fun () -> Policy.round_robin ());
      ( "degraded",
        fun () ->
          Scenario.degraded_policy ~n:(n + replicas)
            ~timely:(1 :: 2 :: List.init replicas (fun r -> n + r)) );
    ]

let digest ~substrate id policy =
  let stack = System.build ~substrate ~seed ~n id in
  let rt = stack.System.rt in
  let steps =
    match substrate with
    | System.Shared_memory -> steps
    | System.Message_passing _ -> mp_steps
  in
  Runtime.run rt ~policy ~steps;
  Runtime.stop rt;
  Digest.to_hex
    (Digest.string (Trace.fingerprint (Option.get stack.System.trace)))

let () =
  List.iter
    (fun substrate ->
      List.iter
        (fun id ->
          List.iter
            (fun (pname, pol) ->
              let d = digest ~substrate id (pol ()) in
              match substrate with
              | System.Shared_memory ->
                Fmt.pr "%s %s %s@." (System.to_string id) pname d
              | System.Message_passing _ ->
                Fmt.pr "%s %s %s %s@." (System.to_string id) pname
                  (System.substrate_name substrate)
                  d)
            (policies ~substrate))
        System.all)
    [ System.Shared_memory; System.Message_passing mp_config ]
