open Tbwf_sim

let test_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

(* The first outputs of three seeds, pinned to values from the boxed
   [mutable int64] implementation: a change of the state's representation
   must leave every stream unchanged. *)
let test_pinned_streams () =
  let pinned =
    [
      ( 0L,
        [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
          0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL; 0x53CB9F0C747EA2EAL;
          0x2C829ABE1F4532E1L; 0xC584133AC916AB3CL ] );
      ( 42L,
        [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L;
          0x581CE1FF0E4AE394L; 0x09BC585A244823F2L; 0xDE4431FA3C80DB06L;
          0x37E9671C45376D5DL; 0xCCF635EE9E9E2FA4L ] );
      ( 0xC0FFEEL,
        [ 0xCA8216FA9058D0FAL; 0xECE45BABCE870479L; 0x87BE93A4A16A73CBL;
          0x5A71C08957A50D44L; 0xC345D6E168AD2C78L; 0xE47DF32A3A624293L;
          0x08CAB724CA100235L; 0xDFA4529422A994BFL ] );
    ]
  in
  List.iter
    (fun (seed, outputs) ->
      let rng = Rng.create seed in
      List.iteri
        (fun i want ->
          Alcotest.(check int64) (Fmt.str "seed %Ld output %d" seed i) want
            (Rng.next rng))
        outputs)
    pinned

let test_different_seeds () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.next a) (Rng.next b)) then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_copy_independent () =
  let a = Rng.create 7L in
  let (_ : int64) = Rng.next a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next a) (Rng.next b);
  let (_ : int64) = Rng.next a in
  let va = Rng.next a in
  let vb = Rng.next b in
  Alcotest.(check bool) "advancing one does not advance the other"
    false (Int64.equal va vb)

let test_split_diverges () =
  let a = Rng.create 11L in
  let b = Rng.split a in
  let equal_count = ref 0 in
  for _ = 1 to 20 do
    if Int64.equal (Rng.next a) (Rng.next b) then incr equal_count
  done;
  Alcotest.(check bool) "split stream is distinct" true (!equal_count < 20)

let test_task_seed_deterministic () =
  let a = Rng.task_seeds ~master:42L 16 in
  let b = Rng.task_seeds ~master:42L 16 in
  Alcotest.(check bool) "same master, same seed array" true (a = b);
  Array.iteri
    (fun i s ->
      Alcotest.(check int64) "task_seeds agrees with task_seed" s
        (Rng.task_seed ~master:42L i))
    a

let test_task_seed_distinct () =
  let seeds = Array.to_list (Rng.task_seeds ~master:7L 64) in
  Alcotest.(check int) "all indices distinct" 64
    (List.length (List.sort_uniq compare seeds));
  Alcotest.(check bool) "masters diverge" false
    (Int64.equal (Rng.task_seed ~master:1L 0) (Rng.task_seed ~master:2L 0));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.task_seed: negative index") (fun () ->
      ignore (Rng.task_seed ~master:1L (-1)))

let test_int_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_int_rejects_nonpositive () =
  let rng = Rng.create 3L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_float_range () =
  let rng = Rng.create 5L in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "out of range: %f" v
  done

let test_bool_probability () =
  let rng = Rng.create 9L in
  let hits = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    if Rng.bool rng 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "rate near 0.25" true (rate > 0.23 && rate < 0.27)

let test_int_uniformity () =
  let rng = Rng.create 13L in
  let buckets = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i count ->
      let expected = trials / 8 in
      if abs (count - expected) > expected / 5 then
        Alcotest.failf "bucket %d skewed: %d vs %d" i count expected)
    buckets

let int64_of_int_gen = QCheck.map Int64.of_int QCheck.int

let qcheck_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair (small_list small_int) int64_of_int_gen)
    (fun (xs, seed) ->
      let rng = Rng.create seed in
      let arr = Array.of_list xs in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let qcheck_pick_member =
  QCheck.Test.make ~name:"pick returns a member" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 20) small_int) small_int)
    (fun (xs, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let arr = Array.of_list xs in
      List.mem (Rng.pick rng arr) xs)

let () =
  Alcotest.run "rng"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "pinned streams" `Quick test_pinned_streams;
          Alcotest.test_case "different seeds differ" `Quick test_different_seeds;
          Alcotest.test_case "copy is independent" `Quick test_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_split_diverges;
          Alcotest.test_case "task seeds deterministic" `Quick
            test_task_seed_deterministic;
          Alcotest.test_case "task seeds distinct" `Quick
            test_task_seed_distinct;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int rejects non-positive" `Quick
            test_int_rejects_nonpositive;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bool probability" `Quick test_bool_probability;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_shuffle_is_permutation; qcheck_pick_member ] );
    ]
