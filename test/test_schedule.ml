(* Serializable schedules: the text format round-trips exactly, rejects
   malformed input, and — the determinism regression — replaying a recorded
   schedule on a fresh identically-seeded runtime reproduces the original
   trace byte for byte, for every kind of policy the simulator offers. *)

open Tbwf_sim

let schedule_eq = Alcotest.(list int)

(* --- text format round-trip ---------------------------------------------- *)

let roundtrip sched =
  match Schedule.of_string (Schedule.to_string sched) with
  | Ok parsed -> parsed
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg

let test_roundtrip_with_idles () =
  let sched = Schedule.make ~seed:42L ~n:3 [ 0; 0; -1; 1; -1; -1; 2; 2; 2 ] in
  Alcotest.(check string) "rendered text"
    "tbwf-sched v1 n=3 seed=42\n0x2 _ 1 _x2 2x3\n"
    (Schedule.to_string sched);
  let parsed = roundtrip sched in
  Alcotest.check schedule_eq "pids" (Schedule.pids sched) (Schedule.pids parsed);
  Alcotest.(check int) "n" 3 (Schedule.n parsed);
  Alcotest.(check int64) "seed" 42L (Schedule.seed parsed)

let test_roundtrip_empty () =
  let parsed = roundtrip (Schedule.make ~n:2 []) in
  Alcotest.check schedule_eq "no steps" [] (Schedule.pids parsed);
  Alcotest.(check int64) "default seed survives" 0xC0FFEEL
    (Schedule.seed parsed)

let test_comments_and_blank_lines_ignored () =
  let text =
    "# a committed counterexample\n\ntbwf-sched v1 n=2 seed=1\n# body below\n\
     1 0x2\n\n# trailing note\n"
  in
  match Schedule.of_string text with
  | Ok sched ->
    Alcotest.check schedule_eq "pids" [ 1; 0; 0 ] (Schedule.pids sched)
  | Error msg -> Alcotest.failf "rejected commented schedule: %s" msg

let test_parse_errors () =
  let rejects label text =
    match Schedule.of_string text with
    | Ok _ -> Alcotest.failf "%s: accepted malformed input" label
    | Error _ -> ()
  in
  rejects "empty input" "";
  rejects "wrong magic" "bogus v1 n=2\n0\n";
  rejects "wrong version" "tbwf-sched v2 n=2\n0\n";
  rejects "missing n" "tbwf-sched v1 seed=3\n0\n";
  rejects "bad n" "tbwf-sched v1 n=zero\n0\n";
  rejects "pid out of range" "tbwf-sched v1 n=2\n0 1 2\n";
  rejects "garbage pid" "tbwf-sched v1 n=2\nzebra\n";
  rejects "zero repeat" "tbwf-sched v1 n=2\n0x0\n"

let test_make_validates () =
  let raises label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted invalid schedule" label
  in
  raises "pid >= n" (fun () -> Schedule.make ~n:2 [ 0; 2 ]);
  raises "pid < -1" (fun () -> Schedule.make ~n:2 [ -2 ]);
  raises "n < 1" (fun () -> Schedule.make ~n:0 [])

(* --- determinism regression ---------------------------------------------- *)

(* A deterministic 3-process scenario over plain cells (no random object
   behaviour): every process writes tagged values to a shared cell and its
   private cell, and reads the shared one back. The full observable trace —
   schedule plus every operation event — is rendered to a string, so
   "byte-identical" means exactly that. *)

let make_cell rt name =
  let contents = ref (Value.Int 0) in
  Runtime.register_object rt ~name ~respond:(fun ctx ->
      match ctx.Shared.op with
      | Value.Pair (Str "write", v) ->
        contents := v;
        Value.Unit
      | Value.Pair (Str "read", _) -> !contents
      | _ -> assert false)

(* The runtime with its recorder attached, and the trace it records. *)
let build_runtime ~seed =
  let rt = Runtime.create ~seed ~n:3 () in
  let trace = Trace.create () in
  Runtime.set_sink rt (Trace.recorder trace);
  let shared = make_cell rt "shared" in
  let private_ = Array.init 3 (fun pid -> make_cell rt (Fmt.str "priv%d" pid)) in
  for pid = 0 to 2 do
    Runtime.spawn rt ~pid ~name:"worker" (fun () ->
        for k = 1 to 4 do
          let v = Value.Int ((pid * 10) + k) in
          let (_ : Value.t) = Runtime.call shared (Value.write_op v) in
          let (_ : Value.t) = Runtime.call private_.(pid) (Value.write_op v) in
          let (_ : Value.t) = Runtime.call shared Value.read_op in
          ()
        done)
  done;
  rt, trace

let render trace =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Fmt.str "schedule %a\n" Fmt.(list ~sep:sp int) (Trace.schedule trace));
  List.iter
    (fun (e : Trace.op_event) ->
      Buffer.add_string buf
        (Fmt.str "%3d p%d %s#%d %a %s\n" e.step e.pid e.obj_name e.obj_id
           Value.pp e.op
           (match e.phase with
           | `Invoke -> "invoke"
           | `Respond r -> Fmt.str "-> %a" Value.pp r)))
    (Trace.ops trace);
  Buffer.contents buf

let policies =
  [
    ("round_robin", fun () -> Policy.round_robin ());
    ("weighted", fun () -> Policy.weighted [| (0, 1.0); (1, 2.5); (2, 0.5) |]);
    ( "of_patterns",
      fun () ->
        Policy.of_patterns
          [
            (0, Policy.Every { period = 2; offset = 0 });
            ( 1,
              Policy.Switch_at
                ( 8,
                  Policy.Flicker { active = 2; sleep = 2; growth = 1.5 },
                  Policy.Weighted 2.0 ) );
            ( 2,
              Policy.Switch_at
                ( 6,
                  Policy.Silent,
                  Policy.Slowing { initial_gap = 2; growth = 2.0; burst = 3 } )
            );
          ] );
    ("solo_after", fun () -> Policy.solo_after ~n:3 ~pid:1 ~step:10);
    ( "of_script",
      fun () ->
        Policy.of_script
          [ 0; 1; 2; 2; 1; 0; 1; 1; 2; 0; 0; 1; 2; 0; 1; 2; 1; 0; 2; 2 ] );
    ( "replay",
      fun () ->
        Policy.replay [ 0; 0; 1; -1; 2; 1; 0; 2; 2; 1; -1; 0; 1; 2; 0 ] );
  ]

let test_replay_reproduces_trace (policy_name, make_policy) () =
  let seed = 7L in
  (* original run under the policy *)
  let rt, trace = build_runtime ~seed in
  Runtime.run rt ~policy:(make_policy ()) ~steps:60;
  let original = render trace in
  let sched = Schedule.make ~seed ~n:3 (Trace.schedule trace) in
  Runtime.stop rt;
  (* replay the recorded schedule on a fresh identically-seeded runtime,
     going through the text serialization to cover the whole pipeline *)
  let sched =
    match Schedule.of_string (Schedule.to_string sched) with
    | Ok s -> s
    | Error msg -> Alcotest.failf "%s: serialization broke: %s" policy_name msg
  in
  let rt', trace' = build_runtime ~seed:(Schedule.seed sched) in
  Runtime.run rt' ~policy:(Policy.replay (Schedule.pids sched))
    ~steps:(Schedule.length sched);
  let replayed = render trace' in
  Runtime.stop rt';
  Alcotest.(check string)
    (policy_name ^ ": replay is byte-identical")
    original replayed

let () =
  Alcotest.run "schedule"
    [
      ( "format",
        [
          Alcotest.test_case "round-trip with idles" `Quick
            test_roundtrip_with_idles;
          Alcotest.test_case "round-trip empty" `Quick test_roundtrip_empty;
          Alcotest.test_case "comments and blanks ignored" `Quick
            test_comments_and_blank_lines_ignored;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "make validates" `Quick test_make_validates;
        ] );
      ( "determinism",
        List.map
          (fun p ->
            Alcotest.test_case (fst p) `Quick (test_replay_reproduces_trace p))
          policies );
    ]
