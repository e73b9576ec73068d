(* The system registry: golden trace fingerprints (the mechanized proof
   that [System.build] wires each stack exactly as the pre-registry code
   did), same-seed build determinism, and id round-tripping. *)

open Tbwf_sim
open Tbwf_experiments
open Tbwf_system

(* --- golden fingerprints -------------------------------------------------- *)

(* The shared-memory lines were generated from the LEGACY per-consumer
   wiring (before lib/system existed), the message-passing lines while
   the monitors and Ω∆ still ran as fibers there;
   bin/gen_system_goldens.ml regenerates both through the registry.
   Equality here is the refactor-equivalence proof: same seed, same
   policy, same object-id assignment, same trace, for every system on
   both substrates. Dimensions must match the generator exactly. *)

let golden_n = 3
let golden_steps = 4_000
let golden_mp_steps = 20_000
let golden_seed = 0x53595354L
let golden_replicas = Tbwf_net.Net.default_config.Tbwf_net.Net.replicas

let golden_policy ~substrate name =
  match substrate, name with
  | System.Shared_memory, "round-robin"
  | System.Message_passing _, "round-robin" ->
    Policy.round_robin ()
  | System.Shared_memory, "degraded" ->
    Scenario.degraded_policy ~n:golden_n ~timely:[ 1; 2 ]
  | System.Message_passing _, "degraded" ->
    Scenario.degraded_policy ~n:(golden_n + golden_replicas)
      ~timely:(1 :: 2 :: List.init golden_replicas (fun r -> golden_n + r))
  | _, other -> Alcotest.failf "unknown policy %S in golden file" other

let golden_path () =
  (* dune runtest runs with cwd = _build/default/test; dune exec from the
     repo root does not. *)
  List.find_opt Sys.file_exists
    [ "golden/system_fingerprints.txt"; "test/golden/system_fingerprints.txt" ]
  |> function
  | Some p -> p
  | None -> Alcotest.fail "golden/system_fingerprints.txt not found"

(* A line is [system policy digest] on shared memory and [system policy
   substrate digest] otherwise. *)
let read_goldens () =
  let ic = open_in (golden_path ()) in
  let rec loop acc =
    match input_line ic with
    | line ->
      let entry =
        match String.split_on_char ' ' line with
        | [ sys; pol; digest ] -> sys, pol, System.Shared_memory, digest
        | [ sys; pol; substrate; digest ] -> (
          match System.substrate_of_name substrate with
          | Ok substrate -> sys, pol, substrate, digest
          | Error msg -> Alcotest.failf "golden substrate: %s" msg)
        | _ -> Alcotest.failf "malformed golden line %S" line
      in
      loop (entry :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  loop []

let digest_of_run id ~substrate ~seed ~n ~steps ~policy =
  let stack = System.build ~substrate ~seed ~n id in
  let rt = stack.System.rt in
  Runtime.run rt ~policy ~steps;
  Runtime.stop rt;
  Digest.to_hex
    (Digest.string (Trace.fingerprint (Option.get stack.System.trace)))

let test_goldens () =
  let goldens = read_goldens () in
  Alcotest.(check int)
    "golden file covers 5 systems x 2 policies x 2 substrates" 20
    (List.length goldens);
  List.iter
    (fun (sys, pol, substrate, expected) ->
      let id =
        match System.of_string sys with
        | Ok id -> id
        | Error msg -> Alcotest.failf "golden system: %s" msg
      in
      let steps =
        match substrate with
        | System.Shared_memory -> golden_steps
        | System.Message_passing _ -> golden_mp_steps
      in
      let actual =
        digest_of_run id ~substrate ~seed:golden_seed ~n:golden_n ~steps
          ~policy:(golden_policy ~substrate pol)
      in
      Alcotest.(check string)
        (Fmt.str "%s under %s on %s matches" sys pol
           (System.substrate_name substrate))
        expected actual)
    goldens

let test_goldens_cover_registry () =
  let goldens = read_goldens () in
  List.iter
    (fun id ->
      let name = System.to_string id in
      List.iter
        (fun substrate ->
          Alcotest.(check bool)
            (Fmt.str "%s on %s present in golden file" name
               (System.substrate_name substrate))
            true
            (List.exists
               (fun (sys, _, substrate', _) ->
                 String.equal sys name
                 && String.equal
                      (System.substrate_name substrate)
                      (System.substrate_name substrate'))
               goldens))
        [
          System.Shared_memory;
          System.Message_passing Tbwf_net.Net.default_config;
        ])
    System.all

(* --- build determinism ---------------------------------------------------- *)

(* Two builds of the same (system, seed) must produce byte-identical
   traces under the same schedule — System.build may not consult any
   hidden state. Telemetry attachment must be trace-neutral. *)

let qcheck_same_seed_byte_identical =
  QCheck.Test.make ~name:"same (system, seed) => byte-identical fingerprints"
    ~count:25
    QCheck.(pair (int_range 0 4) (int_range 1 100_000))
    (fun (which, seed) ->
      let id = List.nth System.all which in
      let seed = Int64.of_int seed in
      let run ~telemetry =
        let stack = System.build ~seed ~telemetry ~n:3 id in
        let rt = stack.System.rt in
        Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:1_500;
        Runtime.stop rt;
        Trace.fingerprint (Option.get stack.System.trace)
      in
      let a = run ~telemetry:false in
      let b = run ~telemetry:false in
      let c = run ~telemetry:true in
      String.equal a b && String.equal a c)

(* --- ids ------------------------------------------------------------------ *)

let test_id_round_trip () =
  List.iter
    (fun id ->
      match System.of_string (System.to_string id) with
      | Ok id' ->
        Alcotest.(check bool)
          (Fmt.str "%s round-trips" (System.to_string id))
          true (id = id')
      | Error msg -> Alcotest.failf "round trip failed: %s" msg)
    System.all

let test_unknown_id () =
  match System.of_string "tbwf-quantum" with
  | Ok _ -> Alcotest.fail "unknown system accepted"
  | Error msg ->
    Alcotest.(check bool) "error lists the known names" true
      (List.for_all
         (fun id ->
           let re = System.to_string id in
           (* poor man's substring check *)
           let len = String.length re in
           let found = ref false in
           for i = 0 to String.length msg - len do
             if String.equal (String.sub msg i len) re then found := true
           done;
           !found)
         System.all)

let test_registry_shape () =
  Alcotest.(check int) "five systems" 5 (List.length System.all);
  Alcotest.(check int) "three paper systems" 3
    (List.length System.paper_systems);
  Alcotest.(check int) "two baselines" 2 (List.length System.baseline_systems);
  List.iter
    (fun id ->
      let info = System.info id in
      Alcotest.(check bool)
        (Fmt.str "%s has a summary" (System.to_string id))
        true
        (String.length info.System.summary > 0);
      Alcotest.(check bool)
        (Fmt.str "%s has a figure reference" (System.to_string id))
        true
        (String.length info.System.figure > 0))
    System.all

let () =
  Alcotest.run "system"
    [
      ( "goldens",
        [
          Alcotest.test_case "registry build matches legacy fingerprints"
            `Quick test_goldens;
          Alcotest.test_case "golden file covers every system" `Quick
            test_goldens_cover_registry;
        ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest qcheck_same_seed_byte_identical ] );
      ( "ids",
        [
          Alcotest.test_case "round trip" `Quick test_id_round_trip;
          Alcotest.test_case "unknown id" `Quick test_unknown_id;
          Alcotest.test_case "registry shape" `Quick test_registry_shape;
        ] );
    ]
