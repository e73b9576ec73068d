open Tbwf_registers

type mesh = {
  hb1 : int Reg.Abortable.t option array array;
  hb2 : int Reg.Abortable.t option array array;
}

type t = {
  me : int;
  mesh : mesh;
  n : int;
  mutable hb_send_counter : int;
  hb_timeout : int array;
  hb_timer : int array;
  (* [None] records an aborted read (the paper's ⊥). *)
  prev_hb1 : int option array;
  prev_hb2 : int option array;
  cur_hb1 : int option array;
  cur_hb2 : int option array;
  active_set : bool array;
}

let registers ?factory rt ~policy ?write_effect ~n () =
  let factory =
    match factory with Some f -> f | None -> Reg.shared_factory rt
  in
  let make tag p q =
    factory.Reg.mk_areg
      ~name:("Hb" ^ tag ^ "[" ^ string_of_int p ^ "->" ^ string_of_int q ^ "]")
      ~codec:Codec.int ~init:0 ~writer:p ~reader:q ~policy ~write_effect
  in
  {
    hb1 =
      Array.init n (fun p ->
          Array.init n (fun q -> if p = q then None else Some (make "1" p q)));
    hb2 =
      Array.init n (fun p ->
          Array.init n (fun q -> if p = q then None else Some (make "2" p q)));
  }

let create ~me ~mesh =
  let n = Array.length mesh.hb1 in
  let t =
    {
      me;
      mesh;
      n;
      hb_send_counter = 0;
      hb_timeout = Array.make n 1;
      hb_timer = Array.make n 1;
      prev_hb1 = Array.make n (Some 0);
      prev_hb2 = Array.make n (Some 0);
      cur_hb1 = Array.make n (Some 0);
      cur_hb2 = Array.make n (Some 0);
      active_set = Array.make n false;
    }
  in
  t.active_set.(me) <- true;
  t

let next_beat t =
  t.hb_send_counter <- t.hb_send_counter + 1;
  t.hb_send_counter

let send t ~dest =
  let beat = next_beat t in
  for q = 0 to t.n - 1 do
    if q <> t.me && dest.(q) then begin
      let r1 = Option.get t.mesh.hb1.(t.me).(q) in
      let r2 = Option.get t.mesh.hb2.(t.me).(q) in
      let (_ : bool) = Reg.Abortable.write r1 beat in
      let (_ : bool) = Reg.Abortable.write r2 beat in
      ()
    end
  done

let due t q =
  if t.hb_timer.(q) >= 1 then t.hb_timer.(q) <- t.hb_timer.(q) - 1;
  t.hb_timer.(q) = 0
  && begin
       t.hb_timer.(q) <- t.hb_timeout.(q);
       t.prev_hb1.(q) <- t.cur_hb1.(q);
       t.prev_hb2.(q) <- t.cur_hb2.(q);
       true
     end

let fresh (cur : int option) prev =
  match cur, prev with
  | None, _ | Some _, None -> true
  | Some c, Some p -> c <> p

let judge t q hb1 hb2 =
  t.cur_hb1.(q) <- hb1;
  t.cur_hb2.(q) <- hb2;
  if fresh hb1 t.prev_hb1.(q) && fresh hb2 t.prev_hb2.(q) then
    t.active_set.(q) <- true
  else begin
    t.active_set.(q) <- false;
    t.hb_timeout.(q) <- t.hb_timeout.(q) + 1
  end

let active_set t = t.active_set

let receive t =
  for q = 0 to t.n - 1 do
    if q <> t.me && due t q then begin
      let hb1 = Reg.Abortable.read (Option.get t.mesh.hb1.(q).(t.me)) in
      let hb2 = Reg.Abortable.read (Option.get t.mesh.hb2.(q).(t.me)) in
      judge t q hb1 hb2
    end
  done;
  t.active_set
