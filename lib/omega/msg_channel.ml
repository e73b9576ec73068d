open Tbwf_registers

type payload = int * int

type t = {
  me : int;
  regs : payload Reg.Abortable.t option array array;
  n : int;
  msg_curr : payload array;
  prev_write_done : bool array;
  prev_msg_from : payload array;
  read_timer : int array;
  read_timeout : int array;
}

let registers ?factory rt ~policy ?write_effect ~n () =
  let factory =
    match factory with Some f -> f | None -> Reg.shared_factory rt
  in
  Array.init n (fun p ->
      Array.init n (fun q ->
          if p = q then None
          else
            Some
              (factory.Reg.mk_areg
                 ~name:("Msg[" ^ string_of_int p ^ "->" ^ string_of_int q ^ "]")
                 ~codec:(Codec.pair Codec.int Codec.int)
                 ~init:(0, 0) ~writer:p ~reader:q ~policy ~write_effect)))

let create ~me ~registers =
  let n = Array.length registers in
  {
    me;
    regs = registers;
    n;
    msg_curr = Array.make n (0, 0);
    prev_write_done = Array.make n true;
    prev_msg_from = Array.make n (0, 0);
    read_timer = Array.make n 1;
    read_timeout = Array.make n 1;
  }

let same ((a, b) : payload) ((a', b') : payload) = a = a' && b = b'

let to_write t q msg =
  ((not t.prev_write_done.(q)) || not (same t.msg_curr.(q) msg))
  && begin
       if t.prev_write_done.(q) then t.msg_curr.(q) <- msg;
       true
     end

let message t q = t.msg_curr.(q)
let written t q ok = t.prev_write_done.(q) <- ok

let write_msgs t msg_to =
  for q = 0 to t.n - 1 do
    if q <> t.me && to_write t q msg_to.(q) then
      written t q
        (Reg.Abortable.write (Option.get t.regs.(t.me).(q)) t.msg_curr.(q))
  done;
  t.prev_write_done

let read_due t q =
  if t.read_timer.(q) >= 1 then t.read_timer.(q) <- t.read_timer.(q) - 1;
  t.read_timer.(q) = 0
  && begin
       t.read_timer.(q) <- t.read_timeout.(q);
       true
     end

let received t q = function
  | None -> t.read_timeout.(q) <- t.read_timeout.(q) + 1
  | Some v when same v t.prev_msg_from.(q) ->
    t.read_timeout.(q) <- t.read_timeout.(q) + 1
  | Some v ->
    t.prev_msg_from.(q) <- v;
    t.read_timeout.(q) <- 1

let read_msgs t =
  for q = 0 to t.n - 1 do
    if q <> t.me && read_due t q then
      received t q (Reg.Abortable.read (Option.get t.regs.(q).(t.me)))
  done;
  t.prev_msg_from

let write_done t = t.prev_write_done
let msg_from t = t.prev_msg_from
