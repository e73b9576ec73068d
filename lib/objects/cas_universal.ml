open Tbwf_sim
open Tbwf_registers

(* The cell stores Pair (Int version, state): the version strictly
   increases on every update, modelling the fresh-pointer-per-update of
   real CAS constructions (a structural CAS on the bare state would let a
   stale update land whenever the state recurred — benign ABA for
   semantics, but it would hide the construction's unfairness). *)
type t = { cell : Value.t Cas_reg.t; spec : Seq_spec.t }

let create rt ~name ~spec =
  let cell =
    Cas_reg.create rt ~name ~codec:Codec.value
      ~init:(Value.Pair (Int 0, spec.Seq_spec.initial))
  in
  { cell; spec }

let attempt t op =
  let versioned = Cas_reg.read t.cell in
  let version, state = Value.to_pair versioned in
  let state', response = Seq_spec.apply_exn t.spec state op in
  let desired = Value.Pair (Int (Value.to_int version + 1), state') in
  if Cas_reg.cas t.cell ~expected:versioned ~desired then Some response
  else None

let invoke t op =
  let result = ref None in
  while !result = None do
    match attempt t op with
    | Some response -> result := Some response
    | None -> Runtime.yield ()
  done;
  Option.get !result

let peek_state t = snd (Value.to_pair (Cas_reg.peek t.cell))
