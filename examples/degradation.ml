(* Graceful degradation, the paper's headline property.

   Eight processes share a TBWF counter. We sweep the number of timely
   processes k from 8 down to 2; the others decelerate forever (each step
   gap 15% longer than the last). Watch the timely processes' throughput
   stay healthy no matter how many of their peers degrade — and compare the
   naive booster, where one decelerating process eventually stalls everyone.

     dune exec examples/degradation.exe
*)

open Tbwf_sim
open Tbwf_core
open Tbwf_objects
open Tbwf_experiments
module System = Tbwf_system.System

let n = 8
let steps = 200_000

let run ~system ~k =
  let timely = List.init k (fun i -> n - 1 - i) in
  let stack =
    System.build ~seed:7L ~record_trace:false ~n ~spec:Counter.spec
      ~next_op:(Workload.forever Counter.inc)
      ~client_pids:(List.init n Fun.id) system
  in
  let policy = Scenario.degraded_policy ~n ~timely in
  Runtime.run stack.System.rt ~policy ~steps;
  Runtime.stop stack.System.rt;
  let completed = stack.System.stats.Workload.completed in
  let timely_ops = List.map (fun pid -> completed.(pid)) timely in
  let untimely_ops =
    List.filteri (fun pid _ -> not (List.mem pid timely)) (Array.to_list completed)
  in
  let sum = List.fold_left ( + ) 0 in
  k, sum timely_ops, List.fold_left min max_int timely_ops, sum untimely_ops

let () =
  Fmt.pr "TBWF counter, n=%d, %d steps; k timely vs (n-k) decelerating@.@." n steps;
  Fmt.pr "%-28s %4s %12s %11s %13s@." "system" "k" "timely total"
    "timely min" "untimely total";
  List.iter
    (fun k ->
      let k, total, min_ops, untimely = run ~system:System.Tbwf_atomic ~k in
      Fmt.pr "%-28s %4d %12d %11d %13d@." "TBWF (atomic registers)" k total
        min_ops untimely)
    [ 8; 6; 4; 2 ];
  Fmt.pr "@.";
  List.iter
    (fun k ->
      let k, total, min_ops, untimely = run ~system:System.Naive_booster ~k in
      Fmt.pr "%-28s %4d %12d %11d %13d@." "naive booster (baseline)" k total
        min_ops untimely)
    [ 8; 6; 4; 2 ];
  Fmt.pr
    "@.Every TBWF row keeps a healthy 'timely min': no process that keeps \
     its relative speed is starved, no matter how many peers decelerate. \
     The naive booster fails twice over: with no punishments leadership \
     never rotates fairly (its 'timely min' can hit 0 even when everyone \
     is timely), and once a decelerating process exists (k < 8) its \
     doubling timeouts eventually trust that process forever, capping \
     everyone's throughput at the slow process's rate.@."
