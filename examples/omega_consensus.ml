(* Consensus from Ω∆ — the paper's closing remark of Section 1.2 made
   executable.

   Five processes must agree on a configuration value. The leader elector is
   Ω∆ built from abortable registers only (the paper's weakest-primitive
   construction), adapted into the failure detector Ω; a shared-memory
   ballot protocol (Disk-Paxos style, over atomic registers) does the rest.
   One process decelerates forever and another crashes mid-run — the timely
   majority still decides, and everyone who decides agrees.

     dune exec examples/omega_consensus.exe
*)

open Tbwf_sim
open Tbwf_consensus

let n = 5

let () =
  let rt = Runtime.create ~seed:31L ~n () in
  let omega = Tbwf_system.System.(omega rt Tbwf_abortable) in
  let adapter = Consensus.Omega_adapter.attach omega in
  let instance = Consensus.create rt ~name:"config" ~omega:adapter in
  let decisions = Array.make n None in
  let proposal pid = Value.Pair (Str "config-of", Int pid) in
  for pid = 0 to n - 1 do
    Runtime.spawn rt ~pid ~name:"proposer" (fun () ->
        let decided = Consensus.propose instance (proposal pid) in
        decisions.(pid) <- Some decided)
  done;
  (* pid 0 decelerates forever; pid 4 crashes; pids 1-3 are timely. *)
  Runtime.crash_at rt ~pid:4 ~step:3_000;
  let policy =
    Policy.of_patterns
      [
        0, Policy.Slowing { initial_gap = 60; growth = 1.2; burst = 40 };
        1, Policy.Every { period = 6; offset = 0 };
        2, Policy.Every { period = 6; offset = 2 };
        3, Policy.Every { period = 6; offset = 4 };
        4, Policy.Weighted 1.0;
      ]
  in
  Runtime.run rt ~policy ~steps:800_000;
  Runtime.stop rt;
  Array.iteri
    (fun pid decision ->
      match decision with
      | Some v -> Fmt.pr "p%d decided %a@." pid Value.pp v
      | None ->
        Fmt.pr "p%d undecided (%s)@." pid
          (if Runtime.crashed rt ~pid then "crashed" else "not timely"))
    decisions;
  let decided = Array.to_list decisions |> List.filter_map Fun.id in
  (match decided with
  | first :: rest ->
    assert (List.for_all (Value.equal first) rest);
    Fmt.pr "agreement across %d deciders on %a@." (List.length decided)
      Value.pp first
  | [] -> assert false);
  Fmt.pr
    "consensus solved with Ω∆ over abortable registers — primitives weaker \
     than safe registers — exactly as §1.2 of the paper claims.@."
