open Tbwf_sim

let trace_of pids =
  let t = Trace.create () in
  List.iter (fun pid -> Trace.record_step t ~pid) pids;
  t

let test_max_gap_simple () =
  (* q-steps between consecutive p-steps: p at 0,4; q at 1,2,3,5,6. *)
  let t = trace_of [ 0; 1; 1; 1; 0; 1; 1 ] in
  Alcotest.(check (option int)) "gap of 3 then trailing 2" (Some 3)
    (Timeliness.max_gap t ~p:0 ~q:1 ~from_step:0)

let test_max_gap_trailing () =
  (* p stops stepping; trailing q-steps count. *)
  let t = trace_of [ 0; 1; 1; 1; 1; 1 ] in
  Alcotest.(check (option int)) "trailing gap" (Some 5)
    (Timeliness.max_gap t ~p:0 ~q:1 ~from_step:0)

let test_max_gap_p_absent () =
  let t = trace_of [ 1; 1; 1 ] in
  Alcotest.(check (option int)) "p never steps" None
    (Timeliness.max_gap t ~p:0 ~q:1 ~from_step:0);
  let empty = trace_of [ 2; 2 ] in
  Alcotest.(check (option int)) "both silent is vacuous" (Some 0)
    (Timeliness.max_gap empty ~p:0 ~q:1 ~from_step:0)

let test_from_step_suffix () =
  (* Bad prefix, clean suffix: eventual timeliness. *)
  let t = trace_of ([ 1; 1; 1; 1; 1; 1; 0 ] @ [ 0; 1; 0; 1; 0; 1 ]) in
  Alcotest.(check (option int)) "whole run has big gap" (Some 6)
    (Timeliness.max_gap t ~p:0 ~q:1 ~from_step:0);
  Alcotest.(check (option int)) "suffix is clean" (Some 1)
    (Timeliness.max_gap t ~p:0 ~q:1 ~from_step:7)

let test_q_timely () =
  let t = trace_of [ 0; 1; 1; 0; 1; 1; 0 ] in
  Alcotest.(check bool) "timely with bound 2" true
    (Timeliness.q_timely t ~p:0 ~q:1 ~from_step:0 ~bound:2);
  Alcotest.(check bool) "not timely with bound 1" false
    (Timeliness.q_timely t ~p:0 ~q:1 ~from_step:0 ~bound:1)

let test_timely_set_round_robin () =
  let t = trace_of (List.concat (List.init 20 (fun _ -> [ 0; 1; 2 ]))) in
  Alcotest.(check (list int)) "all timely under round robin" [ 0; 1; 2 ]
    (Timeliness.timely_set t ~n:3 ~from_step:0 ~bound:3)

let test_timely_set_starved () =
  (* pid 2 steps once early then never again. *)
  let t = trace_of ([ 2 ] @ List.concat (List.init 20 (fun _ -> [ 0; 1 ]))) in
  Alcotest.(check (list int)) "starved pid not timely" [ 0; 1 ]
    (Timeliness.timely_set t ~n:3 ~from_step:0 ~bound:5)

let test_empirical_bound () =
  let t = trace_of [ 0; 1; 1; 0; 1; 1; 0 ] in
  Alcotest.(check (option int)) "bound is max gap + 1" (Some 3)
    (Timeliness.empirical_bound t ~n:2 ~p:0 ~from_step:0);
  Alcotest.(check (option int)) "other direction" (Some 2)
    (Timeliness.empirical_bound t ~n:2 ~p:1 ~from_step:0)

let test_solo_process_is_timely () =
  (* The paper's §1.1 argument: a process running solo is trivially timely
     (timeliness is relative to the other processes' steps). *)
  let t = trace_of (List.init 50 (fun _ -> 0)) in
  Alcotest.(check bool) "solo is timely" true
    (Timeliness.timely t ~n:3 ~p:0 ~from_step:0 ~bound:1)

(* Property: under a run generated by an Every-pattern policy, the Every
   process is classified timely with a bound proportional to its period. *)
let qcheck_every_is_timely =
  QCheck.Test.make ~name:"Every processes are classified timely" ~count:30
    QCheck.(pair (int_range 2 6) (int_range 1 1000))
    (fun (period, seed) ->
      let policy =
        Policy.of_patterns
          [
            0, Policy.Every { period; offset = 0 };
            1, Policy.Weighted 1.0;
            2, Policy.Weighted 1.0;
          ]
      in
      let rng = Rng.create (Int64.of_int seed) in
      let t = Trace.create () in
      for step = 0 to 999 do
        (* -1, an idle step, is recorded as such *)
        Trace.record_step t ~pid:(Policy.next policy ~step ~runnable:[| 0; 1; 2 |] ~rng)
      done;
      Timeliness.timely t ~n:3 ~p:0 ~from_step:0 ~bound:period)

(* Property: [timely_all] classifies every pid as [timely] does, on
   random traces with idle steps, pids that never step (pids [active] to
   n - 1) and suffixes that start past the end of the trace. *)
let qcheck_timely_all_matches_timely =
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      int_range 0 n >>= fun active ->
      let pid =
        if active = 0 then return (-1)
        else frequency [ 1, return (-1); 4, int_range 0 (active - 1) ]
      in
      list_size (int_range 0 200) pid >>= fun pids ->
      int_range 0 (List.length pids + 5) >>= fun from_step ->
      int_range (-1) 20 >|= fun bound -> n, pids, from_step, bound)
  in
  let print (n, pids, from_step, bound) =
    Fmt.str "n=%d from_step=%d bound=%d trace=[%a]" n from_step bound
      Fmt.(list ~sep:semi int) pids
  in
  QCheck.Test.make ~name:"timely_all equals timely per pid" ~count:500
    (QCheck.make ~print gen)
    (fun (n, pids, from_step, bound) ->
      let t = trace_of pids in
      Timeliness.timely_all t ~n ~from_step ~bound
      = Array.init n (fun p -> Timeliness.timely t ~n ~p ~from_step ~bound))

let () =
  Alcotest.run "timeliness"
    [
      ( "unit",
        [
          Alcotest.test_case "max_gap simple" `Quick test_max_gap_simple;
          Alcotest.test_case "max_gap trailing" `Quick test_max_gap_trailing;
          Alcotest.test_case "max_gap p absent" `Quick test_max_gap_p_absent;
          Alcotest.test_case "from_step suffix" `Quick test_from_step_suffix;
          Alcotest.test_case "q_timely" `Quick test_q_timely;
          Alcotest.test_case "timely_set round robin" `Quick
            test_timely_set_round_robin;
          Alcotest.test_case "timely_set starved" `Quick test_timely_set_starved;
          Alcotest.test_case "empirical bound" `Quick test_empirical_bound;
          Alcotest.test_case "solo process is timely" `Quick
            test_solo_process_is_timely;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_every_is_timely;
          QCheck_alcotest.to_alcotest qcheck_timely_all_matches_timely;
        ] );
    ]
