open Tbwf_sim
open Tbwf_registers
open Tbwf_omega

module Omega_adapter = struct
  type t = { handles : Omega_spec.handle array }

  let attach handles = { handles }

  let join t ~pid = Omega_spec.canonical_join t.handles.(pid)

  let leave t ~pid = Omega_spec.leave t.handles.(pid)

  let trusted t ~pid =
    match !(t.handles.(pid).Omega_spec.leader) with
    | Omega_spec.Leader l -> l
    | Omega_spec.No_leader -> pid
end

(* Ballot register block per process: (mbal, bal, input).
   mbal: highest ballot p has started; bal: highest ballot in which p wrote
   a value; input: that value (Unit when none). *)
type t = {
  n : int;
  blocks : (Value.t * Value.t * Value.t) Atomic_reg.t array;
      (* encoded as ((Int mbal, Int bal), input) through a nested codec *)
  decision : Value.t Atomic_reg.t;
  omega : Omega_adapter.t;
}

let block_codec =
  Codec.triple Codec.value Codec.value Codec.value

let create rt ~name ~omega =
  let n = Runtime.n rt in
  let blocks =
    Array.init n (fun p ->
        Atomic_reg.create rt
          ~name:(Fmt.str "%s.x[%d]" name p)
          ~codec:block_codec
          ~init:(Value.Int 0, Value.Int 0, Value.Unit))
  in
  let decision =
    Atomic_reg.create rt ~name:(Fmt.str "%s.decision" name) ~codec:Codec.value
      ~init:Value.Unit
  in
  { n; blocks; decision; omega }

(* One ballot attempt by [pid] with ballot number [b]; returns the decided
   value, or None if a higher ballot interfered. Disk-Paxos shape:
   phase 1 announces b and collects the highest accepted value; phase 2
   writes (b, value) and confirms no higher announcement appeared. *)
let attempt t ~pid ~ballot ~my_input ~max_seen =
  let read_block q =
    let mbal_v, bal_v, input = Atomic_reg.read t.blocks.(q) in
    Value.to_int mbal_v, Value.to_int bal_v, input
  in
  let _, my_bal, my_inp = read_block pid in
  Atomic_reg.write t.blocks.(pid)
    (Value.Int ballot, Value.Int my_bal, my_inp);
  (* Phase 1: read everyone; abort on a higher announcement, otherwise adopt
     the value accepted at the highest ballot (or keep our own input). *)
  let adopt = ref my_input in
  let best_bal = ref 0 in
  let interfered = ref false in
  for q = 0 to t.n - 1 do
    let mbal_q, bal_q, input_q = read_block q in
    if mbal_q > ballot then begin
      interfered := true;
      max_seen := max !max_seen mbal_q
    end;
    if bal_q > !best_bal then begin
      best_bal := bal_q;
      adopt := input_q
    end
  done;
  if !interfered then None
  else begin
    (* Phase 2: accept (ballot, value), then confirm. *)
    Atomic_reg.write t.blocks.(pid) (Value.Int ballot, Value.Int ballot, !adopt);
    let confirmed = ref true in
    for q = 0 to t.n - 1 do
      let mbal_q, _, _ = read_block q in
      if mbal_q > ballot then begin
        confirmed := false;
        max_seen := max !max_seen mbal_q
      end
    done;
    if !confirmed then Some !adopt else None
  end

let propose t my_input =
  if Value.equal my_input Value.Unit then
    invalid_arg "Consensus.propose: Unit is reserved for 'no decision'";
  let pid = Runtime.self () in
  Omega_adapter.join t.omega ~pid;
  let max_seen = ref 0 in
  let result = ref None in
  while !result = None do
    (match Atomic_reg.read t.decision with
    | Value.Unit -> ()
    | v -> result := Some v);
    if !result = None then
      if Omega_adapter.trusted t.omega ~pid = pid then begin
        (* Next ballot owned by pid strictly above everything seen. *)
        let round = (!max_seen / t.n) + 1 in
        let ballot = (round * t.n) + pid in
        max_seen := max !max_seen ballot;
        match attempt t ~pid ~ballot ~my_input ~max_seen with
        | Some value ->
          Atomic_reg.write t.decision value;
          result := Some value
        | None -> Runtime.yield ()
      end
      else Runtime.yield ()
  done;
  Omega_adapter.leave t.omega ~pid;
  Option.get !result
