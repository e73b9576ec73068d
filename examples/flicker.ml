(* Dynamic leader election under flickering candidacies.

   Six processes use Ω∆ directly (no shared object): two compete forever,
   three keep joining and leaving the competition, one competes briefly and
   retires. The run prints each process's leader view over time — watch the
   system converge on a stable timely leader even while half the candidates
   flicker, exactly as Definition 5 promises.

     dune exec examples/flicker.exe
*)

open Tbwf_sim
open Tbwf_omega

let n = 6

let () =
  let rt = Runtime.create ~seed:99L ~n () in
  let handles = Tbwf_system.System.(omega rt Tbwf_atomic) in
  (* Permanent candidates: 0 and 1. *)
  List.iter
    (fun pid ->
      Runtime.spawn rt ~pid ~name:"pcand" (fun () ->
          handles.(pid).Omega_spec.candidate := true))
    [ 0; 1 ];
  (* Repeated candidates: 2, 3, 4 join and leave forever (canonically). *)
  List.iter
    (fun pid ->
      Runtime.spawn rt ~pid ~name:"rcand" (fun () ->
          while true do
            Omega_spec.canonical_join handles.(pid);
            for _ = 1 to 150 do
              Runtime.yield ()
            done;
            Omega_spec.leave handles.(pid);
            for _ = 1 to 150 do
              Runtime.yield ()
            done
          done))
    [ 2; 3; 4 ];
  (* Process 5 competes once, then retires for good. *)
  Runtime.spawn rt ~pid:5 ~name:"ncand" (fun () ->
      handles.(5).Omega_spec.candidate := true;
      for _ = 1 to 200 do
        Runtime.yield ()
      done;
      handles.(5).Omega_spec.candidate := false);
  let policy = Policy.round_robin () in
  Fmt.pr "leader view of each process over time (? = no information):@.@.";
  Fmt.pr "%10s |" "step";
  for pid = 0 to n - 1 do
    Fmt.pr " p%d |" pid
  done;
  Fmt.pr "@.";
  for _seg = 1 to 20 do
    Runtime.run rt ~policy ~steps:15_000;
    Fmt.pr "%10d |" (Runtime.now rt);
    Array.iter
      (fun h ->
        match !(h.Omega_spec.leader) with
        | Omega_spec.Leader l -> Fmt.pr "  %d |" l
        | Omega_spec.No_leader -> Fmt.pr "  ? |")
      handles;
    Fmt.pr "@."
  done;
  Runtime.stop rt;
  Fmt.pr
    "@.The permanent candidates (p0, p1) settle on one leader; the repeated \
     candidates (p2-p4) see that leader or '?'; the retired candidate (p5) \
     settles on '?'.@."
