open Tbwf_sim
open Tbwf_omega
open Tbwf_monitor
open Tbwf_objects

let retry_invoke qa op =
  let next = ref `Op in
  let result = ref None in
  while !result = None do
    let res =
      match !next with
      | `Op -> qa.Qa_intf.invoke op
      | `Query -> qa.Qa_intf.query ()
    in
    match res with
    | Value.Abort -> next := `Query
    | Value.Fail -> next := `Op
    | response -> result := Some response
  done;
  Option.get !result

module Naive_booster = struct
  type t = {
    handles : Omega_spec.handle array;
    monitors : Activity_monitor.t option array array;
  }

  (* Like Figure 3's loop but with the two gracefully-degrading ingredients
     removed: no CounterRegister (so no punishments, no self-punishment) and
     leadership by smallest active pid. The loop makes no shared-object
     call, so it runs as a step machine on every substrate. pc 0: loop top
     (no leader, monitors and advertising off); 1: awaiting candidacy; 2:
     inner-loop candidacy check; 3: consulting A(p,q) for q = [i]. *)
  let election_machine rt t p n : Runtime.machine =
    let handle = t.handles.(p) in
    let monitor q = Option.get t.monitors.(p).(q) in
    (* ACTIVE-FOR[q] at p is the input of A(q,p). *)
    let active_for q =
      (Option.get t.monitors.(q).(p)).Activity_monitor.active_for
    in
    let leader = ref p in
    let i = ref 0 in
    let pc = ref 0 in
    let rec election_step v =
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
        election_step v
      | 1 ->
        if !(handle.Omega_spec.candidate) then begin
          for q = 0 to n - 1 do
            if q <> p then (monitor q).Activity_monitor.monitoring := true
          done;
          pc := 2;
          election_step v
        end
        else Runtime.M_yield
      | 2 ->
        if !(handle.Omega_spec.candidate) then begin
          leader := p;
          i := 0;
          pc := 3
        end
        else pc := 0;
        election_step v
      | 3 ->
        if !i = p then incr i;
        if !i >= n then begin
          Omega_spec.set_view rt handle (Omega_spec.Leader !leader);
          let am_leader = !leader = p in
          for q = 0 to n - 1 do
            if q <> p then active_for q := am_leader
          done;
          (* One step per round, as the yield at the end of the loop. *)
          pc := 2;
          Runtime.M_yield
        end
        else begin
          let status = !((monitor !i).Activity_monitor.status) in
          if Activity_monitor.equal_status status Activity_monitor.Unknown
          then Runtime.M_yield
          else begin
            if
              Activity_monitor.equal_status status Activity_monitor.Active
              && !i < !leader
            then leader := !i;
            incr i;
            election_step v
          end
        end
      | _ -> assert false
    in
    election_step

  let install ?factory ?n rt =
    let n = match n with Some n -> n | None -> Runtime.n rt in
    (* Doubling timeout: the aggressive adaptation that eventually trusts a
       decelerating process forever (see Activity_monitor.install). *)
    let adapt timeout = 2 * timeout in
    let monitors =
      Array.init n (fun p ->
          Array.init n (fun q ->
              if p = q then None
              else Some (Activity_monitor.install ~adapt ?factory rt ~p ~q)))
    in
    let handles = Array.init n (fun pid -> Omega_spec.make_handle ~pid) in
    let t = { handles; monitors } in
    for p = 0 to n - 1 do
      Runtime.spawn_machine ~layer:Sink.Omega rt ~pid:p
        ~name:(Fmt.str "naive-boost[%d]" p)
        (election_machine rt t p n)
    done;
    t
end
