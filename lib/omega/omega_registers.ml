open Tbwf_sim
open Tbwf_registers
open Tbwf_monitor

type t = {
  handles : Omega_spec.handle array;
  monitors : Activity_monitor.t option array array;
  counters : int Reg.t array;
}

(* Figure 3, main code for process p. *)
let omega_loop ~self_punishment rt t p n =
  let handle = t.handles.(p) in
  let monitor q = Option.get t.monitors.(p).(q) in
  (* ACTIVE-FOR[q] at p is the input of A(q,p): "is p active for q?". *)
  let active_for q = (Option.get t.monitors.(q).(p)).Activity_monitor.active_for in
  let others = List.filter (fun q -> q <> p) (List.init n Fun.id) in
  let status = Array.make n Activity_monitor.Unknown in
  let fault_cntr = Array.make n 0 in
  let max_fault_cntr = Array.make n 0 in
  let counter = Array.make n 0 in
  while true do
    Omega_spec.set_view rt handle Omega_spec.No_leader;
    List.iter (fun q -> (monitor q).Activity_monitor.monitoring := false) others;
    List.iter (fun q -> active_for q := false) others;
    Runtime.await (fun () -> !(handle.Omega_spec.candidate));
    List.iter (fun q -> (monitor q).Activity_monitor.monitoring := true) others;
    if self_punishment then begin
      counter.(p) <- t.counters.(p).Reg.read ();
      t.counters.(p).Reg.write (counter.(p) + 1)
    end;
    while !(handle.Omega_spec.candidate) do
      (* Consult each activity monitor until it offers an estimate. *)
      List.iter
        (fun q ->
          let mon = monitor q in
          Runtime.await (fun () ->
              not
                (Activity_monitor.equal_status
                   !(mon.Activity_monitor.status)
                   Activity_monitor.Unknown));
          status.(q) <- !(mon.Activity_monitor.status);
          fault_cntr.(q) <- !(mon.Activity_monitor.fault_cntr))
        others;
      status.(p) <- Activity_monitor.Active;
      for q = 0 to n - 1 do
        counter.(q) <- t.counters.(q).Reg.read ()
      done;
      (* leader := ℓ with (counter ℓ, ℓ) minimal over the active set. *)
      let leader = ref p in
      for q = 0 to n - 1 do
        if
          Activity_monitor.equal_status status.(q) Activity_monitor.Active
          && Omega_spec.precedes counter q !leader
        then leader := q
      done;
      Omega_spec.set_view rt handle (Omega_spec.Leader !leader);
      let am_leader = !leader = p in
      List.iter (fun q -> active_for q := am_leader) others;
      (* Punish processes whose monitor reported new timeliness faults. *)
      List.iter
        (fun q ->
          if fault_cntr.(q) > max_fault_cntr.(q) then begin
            t.counters.(q).Reg.write (counter.(q) + 1);
            max_fault_cntr.(q) <- fault_cntr.(q)
          end)
        others
    done
  done

let install ?(self_punishment = true) ?factory ?n rt =
  let n = match n with Some n -> n | None -> Runtime.n rt in
  let factory =
    match factory with Some f -> f | None -> Reg.shared_factory rt
  in
  let monitors =
    Array.init n (fun p ->
        Array.init n (fun q ->
            if p = q then None
            else Some (Activity_monitor.install ~factory rt ~p ~q)))
  in
  let counters =
    Array.init n (fun q ->
        factory.Reg.mk_reg ~kind:Reg.Mwmr
          ~name:(Fmt.str "Counter[%d]" q)
          ~codec:Codec.int ~init:0)
  in
  let handles = Array.init n (fun pid -> Omega_spec.make_handle ~pid) in
  let t = { handles; monitors; counters } in
  for p = 0 to n - 1 do
    Runtime.spawn ~layer:Sink.Omega rt ~pid:p ~name:(Fmt.str "omega[%d]" p)
      (fun () -> omega_loop ~self_punishment rt t p n)
  done;
  t
