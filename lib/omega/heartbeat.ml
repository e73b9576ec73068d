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
      ~name:(Fmt.str "Hb%s[%d->%d]" tag p q)
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

let send t ~dest =
  t.hb_send_counter <- t.hb_send_counter + 1;
  for q = 0 to t.n - 1 do
    if q <> t.me && dest.(q) then begin
      let r1 = Option.get t.mesh.hb1.(t.me).(q) in
      let r2 = Option.get t.mesh.hb2.(t.me).(q) in
      let (_ : bool) = r1.Reg.Abortable.write t.hb_send_counter in
      let (_ : bool) = r2.Reg.Abortable.write t.hb_send_counter in
      ()
    end
  done

let receive t =
  for q = 0 to t.n - 1 do
    if q <> t.me then begin
      if t.hb_timer.(q) >= 1 then t.hb_timer.(q) <- t.hb_timer.(q) - 1;
      if t.hb_timer.(q) = 0 then begin
        t.hb_timer.(q) <- t.hb_timeout.(q);
        t.prev_hb1.(q) <- t.cur_hb1.(q);
        t.prev_hb2.(q) <- t.cur_hb2.(q);
        t.cur_hb1.(q) <- (Option.get t.mesh.hb1.(q).(t.me)).Reg.Abortable.read ();
        t.cur_hb2.(q) <- (Option.get t.mesh.hb2.(q).(t.me)).Reg.Abortable.read ();
        let fresh (cur : int option) prev =
          match cur, prev with
          | None, _ | Some _, None -> true
          | Some c, Some p -> c <> p
        in
        if
          fresh t.cur_hb1.(q) t.prev_hb1.(q)
          && fresh t.cur_hb2.(q) t.prev_hb2.(q)
        then t.active_set.(q) <- true
        else begin
          t.active_set.(q) <- false;
          t.hb_timeout.(q) <- t.hb_timeout.(q) + 1
        end
      end
    end
  done;
  t.active_set
