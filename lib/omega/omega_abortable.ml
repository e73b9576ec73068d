open Tbwf_sim
open Tbwf_registers

type t = {
  handles : Omega_spec.handle array;
  msg_registers : Msg_channel.payload Reg.Abortable.t option array array;
  hb_mesh : Heartbeat.mesh;
}

(* Figure 6, process p's local variables and its channel and heartbeat
   endpoints. *)
type local = {
  p : int;
  n : int;
  handle : Omega_spec.handle;
  channel : Msg_channel.t;
  heartbeat : Heartbeat.t;
  mutable leader : int;
  counter : int array;
  actr_to : int array;
  msg_to : Msg_channel.payload array;
  (* A fresh all-false array until the first WriteMsgs, the channel's
     prevWriteDone from then on. *)
  mutable write_done : bool array;
}

let new_local t p n =
  {
    p;
    n;
    handle = t.handles.(p);
    channel = Msg_channel.create ~me:p ~registers:t.msg_registers;
    heartbeat = Heartbeat.create ~me:p ~mesh:t.hb_mesh;
    leader = p;
    counter = Array.make n 0;
    actr_to = Array.make n 0;
    msg_to = Array.make n (0, 0);
    write_done = Array.make n false;
  }

(* Self-punishment on joining: jump over the current leader's counter.
   Done with max (not an increment) so counter[p] stops changing once the
   run stabilizes — otherwise WriteMsgs could never propagate it. *)
let join l =
  l.counter.(l.p) <- Int.max l.counter.(l.p) (l.counter.(l.leader) + 1)

(* Leader := the active ℓ with (counter ℓ, ℓ) minimal; punish every
   inactive q through actrTo[q], and prepare msgTo. A message equal to the
   last one is kept rather than rebuilt. *)
let choose rt l active_set =
  let best = ref l.p in
  for q = 0 to l.n - 1 do
    if active_set.(q) && Omega_spec.precedes l.counter q !best then best := q
  done;
  l.leader <- !best;
  Omega_spec.set_view rt l.handle (Omega_spec.Leader l.leader);
  for q = 0 to l.n - 1 do
    if q <> l.p then begin
      if not active_set.(q) then
        l.actr_to.(q) <- Int.max l.actr_to.(q) (l.counter.(l.leader) + 1);
      let c, a = l.msg_to.(q) in
      if c <> l.counter.(l.p) || a <> l.actr_to.(q) then
        l.msg_to.(q) <- l.counter.(l.p), l.actr_to.(q)
    end
  done

(* Take each q's counter, and raise counter[p] to every punishment. *)
let merge l msg_from =
  for q = 0 to l.n - 1 do
    if q <> l.p then begin
      let counter_q, actr_from_q = msg_from.(q) in
      l.counter.(q) <- counter_q;
      l.counter.(l.p) <- Int.max l.counter.(l.p) actr_from_q
    end
  done

(* Figure 6, main code for process p, as a step machine with Figures 4
   and 5 run one register operation at a time through the endpoints'
   one-operation steps: one call of [omega_step] is one step of p's loop.
   Each operation runs through its register's port, so an operation that
   takes many steps (a quorum round) keeps the loop where it is, and one
   that aborts before any message leaves takes none. pc 0: loop top (no
   leader); 1: awaiting candidacy, then joining; 2: inner-loop top,
   SendHeartbeat begins; 3: its scan at q = [i]; 4: the Hb1 write to [i]
   returned (the Hb2 write follows); 5: the Hb2 write returned; 6:
   ReceiveHeartbeat's scan at [i]; 7: the Hb1 read from [i] returned (the
   Hb2 read follows); 8: the Hb2 read returned; 9: WriteMsgs' scan at
   [i]; 10: a message write returned; 11: ReadMsgs' scan at [i]; 12: a
   message read returned; 13: after the end-of-iteration yield (one local
   step per iteration, so the loop stays live even when every adaptive
   timer skips its operation), the candidacy check. *)
let omega_machine rt t p n : Runtime.machine =
  let l = new_local t p n in
  let hb = l.heartbeat and ch = l.channel in
  let hb1 = t.hb_mesh.Heartbeat.hb1 and hb2 = t.hb_mesh.Heartbeat.hb2 in
  let msg = t.msg_registers in
  (* The register p writes for q, and the one q writes for p. *)
  let to_q m q = Option.get m.(p).(q) and from_q m q = Option.get m.(q).(p) in
  (* The ports of the registers p writes and reads. *)
  let ports m =
    List.concat
      (List.init n (fun q ->
           List.filter_map
             (Option.map (fun (r : _ Reg.Abortable.t) -> r.Reg.Abortable.port))
             [ m.(p).(q); m.(q).(p) ]))
  in
  let slot = Reg.Port.slot (ports hb1 @ ports hb2 @ ports msg) in
  (* p's operations on each q's register, made once, and a dummy for
     q = p *)
  let ops mk reg =
    Array.init n (fun q ->
        match reg q with
        | Some (r : _ Reg.Abortable.t) -> mk slot r.Reg.Abortable.port
        | None -> fun _ -> assert false)
  in
  let hb1_to = ops Reg.Port.writer (fun q -> hb1.(p).(q))
  and hb2_to = ops Reg.Port.writer (fun q -> hb2.(p).(q))
  and msg_to = ops Reg.Port.writer (fun q -> msg.(p).(q))
  and hb1_from = ops Reg.Port.reader (fun q -> hb1.(q).(p))
  and hb2_from = ops Reg.Port.reader (fun q -> hb2.(q).(p))
  and msg_from = ops Reg.Port.reader (fun q -> msg.(q).(p)) in
  (* This round's heartbeat, and the Hb1 read awaiting its Hb2. *)
  let beat = ref Value.Unit in
  let hb1_read = ref None in
  let i = ref 0 in
  let pc = ref 0 in
  let rec omega_step v =
    if slot.Reg.Port.busy then Reg.Port.resume slot v
    else
      match !pc with
      | 0 ->
        Omega_spec.set_view rt l.handle Omega_spec.No_leader;
        pc := 1;
        omega_step v
      | 1 ->
        if !(l.handle.Omega_spec.candidate) then begin
          join l;
          pc := 2;
          omega_step v
        end
        else Runtime.M_yield
      | 2 ->
        beat := Value.Int (Heartbeat.next_beat hb);
        i := 0;
        pc := 3;
        omega_step v
      | 3 ->
        if !i >= n then begin
          i := 0;
          pc := 6;
          omega_step v
        end
        else if !i <> p && l.write_done.(!i) then begin
          pc := 4;
          hb1_to.(!i) !beat
        end
        else begin
          incr i;
          omega_step v
        end
      | 4 ->
        pc := 5;
        hb2_to.(!i) !beat
      | 5 ->
        incr i;
        pc := 3;
        omega_step Value.Unit
      | 6 ->
        if !i >= n then begin
          choose rt l (Heartbeat.active_set hb);
          i := 0;
          pc := 9;
          omega_step v
        end
        else if !i <> p && Heartbeat.due hb !i then begin
          pc := 7;
          hb1_from.(!i) ()
        end
        else begin
          incr i;
          omega_step v
        end
      | 7 ->
        hb1_read := Reg.Abortable.result (from_q hb1 !i) v;
        pc := 8;
        hb2_from.(!i) ()
      | 8 ->
        Heartbeat.judge hb !i !hb1_read
          (Reg.Abortable.result (from_q hb2 !i) v);
        incr i;
        pc := 6;
        omega_step Value.Unit
      | 9 ->
        if !i >= n then begin
          l.write_done <- Msg_channel.write_done ch;
          i := 0;
          pc := 11;
          omega_step v
        end
        else if !i <> p && Msg_channel.to_write ch !i l.msg_to.(!i) then begin
          pc := 10;
          msg_to.(!i)
            ((to_q msg !i).Reg.Abortable.enc (Msg_channel.message ch !i))
        end
        else begin
          incr i;
          omega_step v
        end
      | 10 ->
        Msg_channel.written ch !i
          (match v with Value.Abort -> false | _ -> true);
        incr i;
        pc := 9;
        omega_step Value.Unit
      | 11 ->
        if !i >= n then begin
          merge l (Msg_channel.msg_from ch);
          pc := 13;
          Runtime.M_yield
        end
        else if !i <> p && Msg_channel.read_due ch !i then begin
          pc := 12;
          msg_from.(!i) ()
        end
        else begin
          incr i;
          omega_step v
        end
      | 12 ->
        Msg_channel.received ch !i (Reg.Abortable.result (from_q msg !i) v);
        incr i;
        pc := 11;
        omega_step Value.Unit
      | 13 ->
        pc := (if !(l.handle.Omega_spec.candidate) then 2 else 0);
        omega_step v
      | _ -> assert false
  in
  Reg.Port.machine slot omega_step

let install ?factory ?n rt ~policy ?write_effect () =
  let n = match n with Some n -> n | None -> Runtime.n rt in
  let msg_registers =
    Msg_channel.registers ?factory rt ~policy ?write_effect ~n ()
  in
  let hb_mesh = Heartbeat.registers ?factory rt ~policy ?write_effect ~n () in
  let handles = Array.init n (fun pid -> Omega_spec.make_handle ~pid) in
  let t = { handles; msg_registers; hb_mesh } in
  for p = 0 to n - 1 do
    Runtime.spawn_machine ~layer:Sink.Omega rt ~pid:p
      ~name:("omega-ab[" ^ string_of_int p ^ "]")
      (omega_machine rt t p n)
  done;
  t
