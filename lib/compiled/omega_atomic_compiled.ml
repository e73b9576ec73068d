open Tbwf_sim
open Tbwf_registers
open Tbwf_monitor
open Tbwf_omega

(* Figure 3's main loop, compiled. pc map:
   0 outer-loop top (leave, reset monitor inputs)
   1 awaiting candidacy
   2 self-punishment counter read returned
   3 self-punishment counter write returned
   4 inner-loop candidacy check
   5 monitor-consult loop (index [qi], awaits each estimate)
   6 counter-read loop (index [rq], one read per step)
   7 punishment scan (index [pq])
   8 a punishment write returned *)
let machine ~self_punishment rt (t : Omega_registers.t) p n : Runtime.machine =
  let handle = t.Omega_registers.handles.(p) in
  let monitor q = Option.get t.Omega_registers.monitors.(p).(q) in
  let active_for q =
    (Option.get t.Omega_registers.monitors.(q).(p)).Activity_monitor.active_for
  in
  let counter_reg q = t.Omega_registers.counters.(q) in
  let counter_obj q = Reg.obj_exn (counter_reg q) in
  let status = Array.make n Activity_monitor.Unknown in
  let fault_cntr = Array.make n 0 in
  let max_fault_cntr = Array.make n 0 in
  let counter = Array.make n 0 in
  let qi = ref 0 in
  let rq = ref 0 in
  let pq = ref 0 in
  let pc = ref 0 in
  let rec exec v =
    match !pc with
    | 0 ->
      Omega_spec.set_view rt handle Omega_spec.No_leader;
      for q = 0 to n - 1 do
        if q <> p then (monitor q).Activity_monitor.monitoring := false
      done;
      for q = 0 to n - 1 do
        if q <> p then active_for q := false
      done;
      pc := 1;
      exec v
    | 1 ->
      if !(handle.Omega_spec.candidate) then begin
        for q = 0 to n - 1 do
          if q <> p then (monitor q).Activity_monitor.monitoring := true
        done;
        if self_punishment then begin
          pc := 2;
          Runtime.M_call (counter_obj p, Value.read_op)
        end
        else begin
          pc := 4;
          exec v
        end
      end
      else Runtime.M_yield
    | 2 ->
      counter.(p) <- (counter_reg p).Reg.dec v;
      pc := 3;
      Runtime.M_call
        (counter_obj p, Value.write_op (Value.Int (counter.(p) + 1)))
    | 3 ->
      pc := 4;
      exec Value.Unit
    | 4 ->
      if !(handle.Omega_spec.candidate) then begin
        qi := 0;
        pc := 5;
        exec v
      end
      else begin
        pc := 0;
        exec v
      end
    | 5 ->
      if !qi = p then incr qi;
      if !qi >= n then begin
        status.(p) <- Activity_monitor.Active;
        rq := 0;
        pc := 6;
        Runtime.M_call (counter_obj 0, Value.read_op)
      end
      else begin
        let q = !qi in
        let mon = monitor q in
        if
          Activity_monitor.equal_status
            !(mon.Activity_monitor.status)
            Activity_monitor.Unknown
        then Runtime.M_yield
        else begin
          status.(q) <- !(mon.Activity_monitor.status);
          fault_cntr.(q) <- !(mon.Activity_monitor.fault_cntr);
          incr qi;
          exec v
        end
      end
    | 6 ->
      counter.(!rq) <- (counter_reg !rq).Reg.dec v;
      incr rq;
      if !rq < n then Runtime.M_call (counter_obj !rq, Value.read_op)
      else begin
        let leader = ref p in
        for q = 0 to n - 1 do
          if
            Activity_monitor.equal_status status.(q) Activity_monitor.Active
            && (counter.(q), q) < (counter.(!leader), !leader)
          then leader := q
        done;
        Omega_spec.set_view rt handle (Omega_spec.Leader !leader);
        let am_leader = !leader = p in
        for q = 0 to n - 1 do
          if q <> p then active_for q := am_leader
        done;
        pq := 0;
        pc := 7;
        exec Value.Unit
      end
    | 7 ->
      if !pq = p then incr pq;
      if !pq >= n then begin
        pc := 4;
        exec v
      end
      else begin
        let q = !pq in
        if fault_cntr.(q) > max_fault_cntr.(q) then begin
          pc := 8;
          Runtime.M_call
            (counter_obj q, Value.write_op (Value.Int (counter.(q) + 1)))
        end
        else begin
          incr pq;
          exec v
        end
      end
    | 8 ->
      max_fault_cntr.(!pq) <- fault_cntr.(!pq);
      incr pq;
      pc := 7;
      exec Value.Unit
    | _ -> assert false
  in
  exec

let install ?(self_punishment = true) rt =
  let n = Runtime.n rt in
  let monitors =
    Array.init n (fun p ->
        Array.init n (fun q ->
            if p = q then None else Some (Activity_monitor.install rt ~p ~q)))
  in
  let factory = Reg.shared_factory rt in
  let counters =
    Array.init n (fun q ->
        factory.Reg.mk_reg ~kind:Reg.Mwmr
          ~name:(Fmt.str "Counter[%d]" q)
          ~codec:Codec.int ~init:0)
  in
  let handles = Array.init n (fun pid -> Omega_spec.make_handle ~pid) in
  let t = { Omega_registers.handles; monitors; counters } in
  for p = 0 to n - 1 do
    Runtime.spawn_machine ~layer:Sink.Omega rt ~pid:p
      ~name:(Fmt.str "omega[%d]" p)
      (machine ~self_punishment rt t p n)
  done;
  t
