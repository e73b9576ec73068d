open Tbwf_sim

type t = {
  handles : Omega_spec.handle array;
  msg_registers :
    Msg_channel.payload Tbwf_registers.Reg.Abortable.t option array array;
  hb_mesh : Heartbeat.mesh;
}

(* Figure 6, main code for process p. *)
let omega_loop rt t p n =
  let handle = t.handles.(p) in
  let channel = Msg_channel.create ~me:p ~registers:t.msg_registers in
  let heartbeat = Heartbeat.create ~me:p ~mesh:t.hb_mesh in
  let leader = ref p in
  let counter = Array.make n 0 in
  let actr_to = Array.make n 0 in
  let write_done = ref (Array.make n false) in
  let msg_to = Array.make n (0, 0) in
  while true do
    Omega_spec.set_view rt handle Omega_spec.No_leader;
    Runtime.await (fun () -> !(handle.Omega_spec.candidate));
    (* Self-punishment on joining: jump over the current leader's counter.
       Done with max (not an increment) so counter[p] stops changing once
       the run stabilizes — otherwise WriteMsgs could never propagate it. *)
    counter.(p) <- Int.max counter.(p) (counter.(!leader) + 1);
    let continue_loop = ref true in
    while !continue_loop do
      Heartbeat.send heartbeat ~dest:!write_done;
      let active_set = Heartbeat.receive heartbeat in
      let best = ref p in
      for q = 0 to n - 1 do
        if active_set.(q) && Omega_spec.precedes counter q !best then best := q
      done;
      leader := !best;
      Omega_spec.set_view rt handle (Omega_spec.Leader !leader);
      for q = 0 to n - 1 do
        if q <> p then begin
          if not active_set.(q) then
            actr_to.(q) <- Int.max actr_to.(q) (counter.(!leader) + 1);
          msg_to.(q) <- counter.(p), actr_to.(q)
        end
      done;
      write_done := Msg_channel.write_msgs channel msg_to;
      let msg_from = Msg_channel.read_msgs channel in
      for q = 0 to n - 1 do
        if q <> p then begin
          let counter_q, actr_from_q = msg_from.(q) in
          counter.(q) <- counter_q;
          counter.(p) <- Int.max counter.(p) actr_from_q
        end
      done;
      (* One local step per iteration: keeps the loop live in the simulator
         even on iterations where every adaptive timer skips its register
         operation. *)
      Runtime.yield ();
      continue_loop := !(handle.Omega_spec.candidate)
    done
  done

let install ?factory ?n rt ~policy ?write_effect () =
  let n = match n with Some n -> n | None -> Runtime.n rt in
  let msg_registers =
    Msg_channel.registers ?factory rt ~policy ?write_effect ~n ()
  in
  let hb_mesh = Heartbeat.registers ?factory rt ~policy ?write_effect ~n () in
  let handles = Array.init n (fun pid -> Omega_spec.make_handle ~pid) in
  let t = { handles; msg_registers; hb_mesh } in
  for p = 0 to n - 1 do
    Runtime.spawn ~layer:Sink.Omega rt ~pid:p ~name:(Fmt.str "omega-ab[%d]" p)
      (fun () -> omega_loop rt t p n)
  done;
  t
