open Tbwf_sim
open Tbwf_monitor
open Tbwf_omega
open Tbwf_core

(* The naive-booster election loop, compiled. No shared-object calls at
   all — leadership is min-active-pid over the monitor estimates. pc map:
   0 outer-loop top; 1 awaiting candidacy; 2 inner-loop candidacy check;
   3 monitor-consult loop (index [qi]); 4 the end-of-iteration yield. *)
let machine rt (t : Baselines.Naive_booster.t) p n : Runtime.machine =
  let handle = t.Baselines.Naive_booster.handles.(p) in
  let monitor q = Option.get t.Baselines.Naive_booster.monitors.(p).(q) in
  let active_for q =
    (Option.get t.Baselines.Naive_booster.monitors.(q).(p))
      .Activity_monitor.active_for
  in
  let leader = ref p in
  let qi = ref 0 in
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
        pc := 2;
        exec v
      end
      else Runtime.M_yield
    | 2 ->
      if !(handle.Omega_spec.candidate) then begin
        leader := p;
        qi := 0;
        pc := 3;
        exec v
      end
      else begin
        pc := 0;
        exec v
      end
    | 3 ->
      if !qi = p then incr qi;
      if !qi >= n then begin
        Omega_spec.set_view rt handle (Omega_spec.Leader !leader);
        let am_leader = !leader = p in
        for q = 0 to n - 1 do
          if q <> p then active_for q := am_leader
        done;
        pc := 2;
        Runtime.M_yield
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
          if
            Activity_monitor.equal_status
              !(mon.Activity_monitor.status)
              Activity_monitor.Active
            && q < !leader
          then leader := q;
          incr qi;
          exec v
        end
      end
    | _ -> assert false
  in
  exec

let install rt =
  let n = Runtime.n rt in
  let adapt timeout = 2 * timeout in
  let monitors =
    Array.init n (fun p ->
        Array.init n (fun q ->
            if p = q then None
            else Some (Activity_monitor.install ~adapt rt ~p ~q)))
  in
  let handles = Array.init n (fun pid -> Omega_spec.make_handle ~pid) in
  let t = { Baselines.Naive_booster.handles; monitors } in
  for p = 0 to n - 1 do
    Runtime.spawn_machine ~layer:Sink.Omega rt ~pid:p
      ~name:(Fmt.str "naive-boost[%d]" p)
      (machine rt t p n)
  done;
  t
