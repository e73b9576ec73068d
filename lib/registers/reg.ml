(* First-class register handles and register factories. See reg.mli. *)

open Tbwf_sim

module Port = struct
  type ops = {
    read : unit -> Runtime.machine_action;
    write : Value.t -> Runtime.machine_action;
    answer : Value.t -> Runtime.machine_action;
    result : unit -> Value.t;
  }

  (* A direct operation's answer is its result, so the machine reads it at
     its next step as it would any call's; only a driven operation is put
     in flight and resumed. *)
  type slot = {
    mutable busy : bool;
    mutable ops : ops;
    mutable dispatch : Value.t -> Runtime.machine_action;
  }

  (* A shared-memory register's operation is its one call. It keeps no
     state, so every caller shares these functions. *)
  type t =
    | Direct of {
        read : unit -> Runtime.machine_action;
        write : Value.t -> Runtime.machine_action;
      }
    | Driven of (unit -> ops)

  let direct obj =
    Direct
      {
        read = (fun () -> Runtime.M_call (obj, Value.read_op));
        write = (fun v -> Runtime.M_call (obj, Value.write_op v));
      }

  let driven make = Driven make

  (* One operation inside a fiber task, its calls through [Runtime.call];
     [op] begins it from the port's read and write. *)
  let run port op =
    match port with
    | Direct d -> (
      match op d.read d.write with
      | Runtime.M_call (obj, v) -> Runtime.call obj v
      | Runtime.M_yield | Runtime.M_halt -> assert false)
    | Driven make ->
      let ops = make () in
      let rec go = function
        | Runtime.M_call (obj, v) -> go (ops.answer (Runtime.call obj v))
        | Runtime.M_yield | Runtime.M_halt -> ops.result ()
      in
      go (op ops.read ops.write)

  let no_ops =
    {
      read = (fun () -> Runtime.M_halt);
      write = (fun _ -> Runtime.M_halt);
      answer = (fun _ -> Runtime.M_halt);
      result = (fun () -> Value.Unit);
    }

  let no_dispatch _ = Runtime.M_halt

  (* A machine whose ports are all direct never has an operation in
     flight, so it shares this slot, which nothing writes. *)
  let idle = { busy = false; ops = no_ops; dispatch = no_dispatch }

  let slot ports =
    if List.for_all (function Direct _ -> true | Driven _ -> false) ports
    then idle
    else { busy = false; ops = no_ops; dispatch = no_dispatch }

  let machine slot step =
    if slot != idle then slot.dispatch <- step;
    step

  let resume slot v =
    match slot.ops.answer v with
    | Runtime.M_halt ->
      slot.busy <- false;
      slot.dispatch (slot.ops.result ())
    | action -> action

  (* A machine over one register keeps the same operations in its slot:
     storing them again would only cost a write barrier. *)
  let start slot ops = function
    | Runtime.M_halt -> slot.dispatch (ops.result ())
    | action ->
      if slot.ops != ops then slot.ops <- ops;
      slot.busy <- true;
      action

  let caller slot make =
    if slot == idle then invalid_arg "Reg.Port: a port not given to its slot";
    make ()

  let reader slot = function
    | Direct d -> d.read
    | Driven make ->
      let ops = caller slot make in
      fun () -> start slot ops (ops.read ())

  let writer slot = function
    | Direct d -> d.write
    | Driven make ->
      let ops = caller slot make in
      fun v -> start slot ops (ops.write v)
end

type 'a t = {
  port : Port.t;
  peek : unit -> 'a;
  enc : 'a -> Value.t;
  dec : Value.t -> 'a;
}

let read h = h.dec (Port.run h.port (fun read _ -> read ()))

let write h x =
  ignore (Port.run h.port (fun _ write -> write (h.enc x)) : Value.t)

module Abortable = struct
  type 'a t = {
    port : Port.t;
    peek : unit -> 'a;
    enc : 'a -> Value.t;
    dec : Value.t -> 'a;
  }

  let result h = function Value.Abort -> None | v -> Some (h.dec v)

  let read h = result h (Port.run h.port (fun read _ -> read ()))

  let write h x =
    match Port.run h.port (fun _ write -> write (h.enc x)) with
    | Value.Abort -> false
    | _ -> true
end

type kind = Mwmr | Swmr of { writer : int }

type factory = {
  mk_reg :
    'a. kind:kind -> name:string -> codec:'a Codec.t -> init:'a -> 'a t;
  mk_areg :
    'a.
    name:string ->
    codec:'a Codec.t ->
    init:'a ->
    writer:int ->
    reader:int ->
    policy:Abort_policy.t ->
    write_effect:Abort_policy.write_effect option ->
    'a Abortable.t;
}

let of_atomic reg =
  {
    port = Port.direct (Atomic_reg.shared reg);
    peek = (fun () -> Atomic_reg.peek reg);
    enc = Atomic_reg.encode reg;
    dec = Atomic_reg.decode reg;
  }

let of_abortable reg =
  {
    Abortable.port = Port.direct (Abortable_reg.shared reg);
    peek = (fun () -> Abortable_reg.peek reg);
    enc = Abortable_reg.encode reg;
    dec = Abortable_reg.decode reg;
  }

let shared_factory rt =
  {
    mk_reg =
      (fun ~kind:_ ~name ~codec ~init ->
        of_atomic (Atomic_reg.create rt ~name ~codec ~init));
    mk_areg =
      (fun ~name ~codec ~init ~writer ~reader ~policy ~write_effect ->
        of_abortable
          (Abortable_reg.create rt ~name ~codec ~init ~writer ~reader ~policy
             ?write_effect ()));
  }
