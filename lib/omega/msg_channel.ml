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
                 ~name:(Fmt.str "Msg[%d->%d]" p q)
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

let write_msgs t msg_to =
  for q = 0 to t.n - 1 do
    if q <> t.me then
      if (not t.prev_write_done.(q)) || not (same t.msg_curr.(q) msg_to.(q))
      then begin
        if t.prev_write_done.(q) then t.msg_curr.(q) <- msg_to.(q);
        let reg = Option.get t.regs.(t.me).(q) in
        t.prev_write_done.(q) <- reg.Reg.Abortable.write t.msg_curr.(q)
      end
  done;
  t.prev_write_done

let read_msgs t =
  for q = 0 to t.n - 1 do
    if q <> t.me then begin
      if t.read_timer.(q) >= 1 then t.read_timer.(q) <- t.read_timer.(q) - 1;
      if t.read_timer.(q) = 0 then begin
        t.read_timer.(q) <- t.read_timeout.(q);
        let reg = Option.get t.regs.(q).(t.me) in
        match reg.Reg.Abortable.read () with
        | None -> t.read_timeout.(q) <- t.read_timeout.(q) + 1
        | Some v when same v t.prev_msg_from.(q) ->
          t.read_timeout.(q) <- t.read_timeout.(q) + 1
        | Some v ->
          t.prev_msg_from.(q) <- v;
          t.read_timeout.(q) <- 1
      end
    end
  done;
  t.prev_msg_from
