open Tbwf_sim
open Tbwf_core

(* --- Workload ------------------------------------------------------------- *)

let test_workload_counts () =
  let rt = Runtime.create ~n:2 () in
  let stats = Workload.fresh_stats ~n:2 in
  let calls = ref 0 in
  Workload.spawn_clients rt ~pids:[ 0; 1 ] ~stats
    ~invoke:(fun op ->
      incr calls;
      Runtime.yield ();
      op)
    ~next_op:(Workload.n_times 4 (Value.Int 9));
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:1_000;
  Alcotest.(check (array int)) "issued" [| 4; 4 |] stats.Workload.issued;
  Alcotest.(check (array int)) "completed" [| 4; 4 |] stats.Workload.completed;
  Alcotest.(check int) "invoke called per op" 8 !calls

let test_workload_forever_never_stops () =
  let rt = Runtime.create ~n:1 () in
  let stats = Workload.fresh_stats ~n:1 in
  Workload.spawn_clients rt ~pids:[ 0 ] ~stats
    ~invoke:(fun op ->
      Runtime.yield ();
      op)
    ~next_op:(Workload.forever Value.Unit);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:501;
  Runtime.stop rt;
  Alcotest.(check bool) "kept issuing" true (stats.Workload.issued.(0) > 100)

(* --- Bakery --------------------------------------------------------------- *)

let test_bakery_mutual_exclusion () =
  let rt = Runtime.create ~seed:3L ~n:3 () in
  let lock = Bakery.create rt ~name:"L" in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let rounds = Array.make 3 0 in
  for pid = 0 to 2 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        for _ = 1 to 10 do
          Bakery.with_lock lock (fun () ->
              incr inside;
              if !inside > !max_inside then max_inside := !inside;
              Runtime.yield ();
              Runtime.yield ();
              decr inside);
          rounds.(pid) <- rounds.(pid) + 1
        done)
  done;
  Runtime.run rt ~policy:(Policy.weighted [| 0, 1.0; 1, 1.4; 2, 0.8 |])
    ~steps:200_000;
  Runtime.stop rt;
  Alcotest.(check int) "never two inside" 1 !max_inside;
  Alcotest.(check (array int)) "everyone completed all rounds" [| 10; 10; 10 |]
    rounds

let test_bakery_frozen_holder_blocks_everyone () =
  let rt = Runtime.create ~n:2 () in
  let lock = Bakery.create rt ~name:"L" in
  let p1_acquired = ref false in
  Runtime.spawn rt ~pid:0 ~name:"holder" (fun () ->
      Bakery.lock lock;
      (* never unlocks; its schedule freezes below *)
      while true do
        Runtime.yield ()
      done);
  Runtime.spawn rt ~pid:1 ~name:"waiter" (fun () ->
      for _ = 1 to 50 do
        Runtime.yield ()
      done;
      Bakery.lock lock;
      p1_acquired := true);
  let policy =
    Policy.of_patterns
      [ 0, Policy.Switch_at (200, Policy.Weighted 1.0, Policy.Silent);
        1, Policy.Weighted 1.0 ]
  in
  Runtime.run rt ~policy ~steps:50_000;
  Runtime.stop rt;
  Alcotest.(check bool) "waiter blocked forever behind frozen holder" false
    !p1_acquired

(* --- Baselines ------------------------------------------------------------ *)

let test_naive_booster_elects_min_pid () =
  let rt = Runtime.create ~n:3 () in
  let booster = Baselines.Naive_booster.install rt in
  for pid = 0 to 2 do
    Runtime.spawn rt ~pid ~name:"cand" (fun () ->
        booster.Baselines.Naive_booster.handles.(pid).Tbwf_omega.Omega_spec.candidate
        := true)
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:60_000;
  Runtime.stop rt;
  Array.iter
    (fun h ->
      Alcotest.(check bool) "all views name pid 0" true
        (Tbwf_omega.Omega_spec.equal_view
           !(h.Tbwf_omega.Omega_spec.leader)
           (Tbwf_omega.Omega_spec.Leader 0)))
    booster.Baselines.Naive_booster.handles

let () =
  Alcotest.run "core"
    [
      ( "workload",
        [
          Alcotest.test_case "counts" `Quick test_workload_counts;
          Alcotest.test_case "forever" `Quick test_workload_forever_never_stops;
        ] );
      ( "bakery",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_bakery_mutual_exclusion;
          Alcotest.test_case "frozen holder blocks everyone" `Quick
            test_bakery_frozen_holder_blocks_everyone;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "naive booster elects min pid" `Quick
            test_naive_booster_elects_min_pid;
        ] );
    ]
