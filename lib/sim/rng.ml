(* The splitmix64 state lives unboxed in 8 bytes: a [mutable int64] field
   would box a fresh Int64 on every draw. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let copy = Bytes.copy

(* splitmix64: fast, well distributed, trivially seedable. Inlined into
   [int], [float] and [bool], so [int] and [bool] draws allocate nothing
   ([float]'s result is a boxed float when called from another module). *)
let[@inline] next t =
  let open Int64 in
  let z = add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let split t = create (next t)

(* Stateless per-task seed derivation: task [i]'s seed is the splitmix64
   output for counter state [master + (i+1)·γ] — i.e. what a generator
   seeded with [master] would emit as its (i+1)-th value, computed
   directly from the index. Parallel fan-out must never split seeds off a
   shared mutable generator (the derived seeds would then depend on how
   many draws happened before the split); this derivation depends only on
   (master, index), so every pool, at any domain count, derives the same
   task-seed array. *)
let task_seed ~master index =
  if index < 0 then invalid_arg "Rng.task_seed: negative index";
  let open Int64 in
  let z = add master (mul (of_int (index + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let task_seeds ~master count =
  if count < 0 then invalid_arg "Rng.task_seeds: negative count";
  Array.init count (fun i -> task_seed ~master i)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits: OCaml's native int has 63, so a 63-bit mask could still
     produce negatives through Int64.to_int. *)
  let mask = Int64.shift_right_logical Int64.minus_one 2 in
  let v = Int64.to_int (Int64.logand (next t) mask) in
  v mod bound

let[@inline] float t =
  let v = Int64.shift_right_logical (next t) 11 in
  Int64.to_float v /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
