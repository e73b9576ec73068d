open Tbwf_sim
open Tbwf_registers

(* Each array cell holds Pair (tag, Int version) with
   tag = Str "LN" | Str "RN" | Pair (Str "v", value). *)

let ln = Value.Str "LN"
let rn = Value.Str "RN"
let v_tag value = Value.Pair (Str "v", value)

let is_ln = function Value.Str "LN" -> true | _ -> false
let is_rn = function Value.Str "RN" -> true | _ -> false

let tag_of cell = fst (Value.to_pair cell)
let version_of cell = Value.to_int (snd (Value.to_pair cell))
let make_cell tag version = Value.Pair (tag, Value.Int version)

type t = {
  cells : Value.t Cas_reg.t array;  (* length = capacity + 2 sentinels *)
  size : int;
}

let create rt ~name ~capacity =
  if capacity < 2 then invalid_arg "Hlm_deque.create: capacity >= 2";
  let size = capacity + 2 in
  let mid = size / 2 in
  let cells =
    Array.init size (fun i ->
        let tag = if i < mid then ln else rn in
        Cas_reg.create rt
          ~name:(Fmt.str "%s[%d]" name i)
          ~codec:Codec.value ~init:(make_cell tag 0))
  in
  { cells; size }

(* The oracle may return any hint; correctness never depends on it, only
   the number of retries does. We scan for the boundary: for `Right, the
   smallest k with A[k] = RN; for `Left, the largest k with A[k] = LN. *)
let oracle t side =
  match side with
  | `Right ->
    let k = ref (t.size - 1) in
    for i = t.size - 1 downto 0 do
      if is_rn (tag_of (Cas_reg.read t.cells.(i))) then k := i
    done;
    !k
  | `Left ->
    let k = ref 0 in
    for i = 0 to t.size - 1 do
      if is_ln (tag_of (Cas_reg.read t.cells.(i))) then k := i
    done;
    !k

(* One attempt of each operation; `Interfered means a CAS lost a race (or
   the oracle's hint was stale) and the caller should retry. *)

let right_push_once t value =
  let k = oracle t `Right in
  if k = 0 then `Interfered (* stale hint: RN cannot be leftmost *)
  else begin
    let prev = Cas_reg.read t.cells.(k - 1) in
    let cur = Cas_reg.read t.cells.(k) in
    if (not (is_rn (tag_of prev))) && is_rn (tag_of cur) then
      if k = t.size - 1 then `Full
      else if
        Cas_reg.cas t.cells.(k - 1) ~expected:prev
          ~desired:(make_cell (tag_of prev) (version_of prev + 1))
      then
        if
          Cas_reg.cas t.cells.(k) ~expected:cur
            ~desired:(make_cell (v_tag value) (version_of cur + 1))
        then `Ok
        else `Interfered
      else `Interfered
    else `Interfered
  end

let right_pop_once t =
  let k = oracle t `Right in
  if k = 0 then `Interfered
  else begin
    let cur = Cas_reg.read t.cells.(k - 1) in
    let next = Cas_reg.read t.cells.(k) in
    if (not (is_rn (tag_of cur))) && is_rn (tag_of next) then
      if
        is_ln (tag_of cur)
        && Value.equal (Cas_reg.read t.cells.(k - 1)) cur
      then `Empty
      else if
        Cas_reg.cas t.cells.(k) ~expected:next
          ~desired:(make_cell rn (version_of next + 1))
      then
        if
          Cas_reg.cas t.cells.(k - 1) ~expected:cur
            ~desired:(make_cell rn (version_of cur + 1))
        then
          match tag_of cur with
          | Value.Pair (Str "v", value) -> `Value value
          | _ -> `Interfered (* cur was LN: lost the emptiness race *)
        else `Interfered
      else `Interfered
    else `Interfered
  end

let left_push_once t value =
  let k = oracle t `Left in
  if k = t.size - 1 then `Interfered
  else begin
    let prev = Cas_reg.read t.cells.(k + 1) in
    let cur = Cas_reg.read t.cells.(k) in
    if (not (is_ln (tag_of prev))) && is_ln (tag_of cur) then
      if k = 0 then `Full
      else if
        Cas_reg.cas t.cells.(k + 1) ~expected:prev
          ~desired:(make_cell (tag_of prev) (version_of prev + 1))
      then
        if
          Cas_reg.cas t.cells.(k) ~expected:cur
            ~desired:(make_cell (v_tag value) (version_of cur + 1))
        then `Ok
        else `Interfered
      else `Interfered
    else `Interfered
  end

let left_pop_once t =
  let k = oracle t `Left in
  if k = t.size - 1 then `Interfered
  else begin
    let cur = Cas_reg.read t.cells.(k + 1) in
    let next = Cas_reg.read t.cells.(k) in
    if (not (is_ln (tag_of cur))) && is_ln (tag_of next) then
      if
        is_rn (tag_of cur)
        && Value.equal (Cas_reg.read t.cells.(k + 1)) cur
      then `Empty
      else if
        Cas_reg.cas t.cells.(k) ~expected:next
          ~desired:(make_cell ln (version_of next + 1))
      then
        if
          Cas_reg.cas t.cells.(k + 1) ~expected:cur
            ~desired:(make_cell ln (version_of cur + 1))
        then
          match tag_of cur with
          | Value.Pair (Str "v", value) -> `Value value
          | _ -> `Interfered
        else `Interfered
      else `Interfered
    else `Interfered
  end

let rec retry_forever once =
  match once () with
  | `Interfered ->
    Runtime.yield ();
    retry_forever once
  | (`Ok | `Full | `Empty | `Value _) as outcome -> outcome

let bounded ~attempts once =
  let rec go remaining =
    if remaining = 0 then `Interfered
    else
      match once () with
      | `Interfered ->
        Runtime.yield ();
        go (remaining - 1)
      | (`Ok | `Full | `Empty | `Value _) as outcome -> outcome
  in
  go attempts

let right_push t v =
  match retry_forever (fun () -> right_push_once t v) with
  | (`Ok | `Full) as r -> r
  | `Empty | `Value _ -> assert false

let right_pop t =
  match retry_forever (fun () -> right_pop_once t) with
  | (`Empty | `Value _) as r -> r
  | `Ok | `Full -> assert false

let left_push t v =
  match retry_forever (fun () -> left_push_once t v) with
  | (`Ok | `Full) as r -> r
  | `Empty | `Value _ -> assert false

let left_pop t =
  match retry_forever (fun () -> left_pop_once t) with
  | (`Empty | `Value _) as r -> r
  | `Ok | `Full -> assert false

let try_right_push t v ~attempts =
  match bounded ~attempts (fun () -> right_push_once t v) with
  | (`Ok | `Full | `Interfered) as r -> r
  | `Empty | `Value _ -> assert false

let peek_contents t =
  Array.to_list t.cells
  |> List.filter_map (fun cell ->
         match tag_of (Cas_reg.peek cell) with
         | Value.Pair (Str "v", value) -> Some value
         | _ -> None)
