open Tbwf_sim

type t = {
  monitors : Activity_monitor.t option array array;  (* (p).(q) = A(p,q) *)
}

let install rt =
  let n = Runtime.n rt in
  let monitors =
    Array.init n (fun p ->
        Array.init n (fun q ->
            if p = q then None
            else begin
              let mon = Activity_monitor.install rt ~p ~q in
              mon.Activity_monitor.monitoring := true;
              mon.Activity_monitor.active_for := true;
              Some mon
            end))
  in
  { monitors }

let suspected t ~pid ~q =
  match t.monitors.(pid).(q) with
  | None -> false
  | Some mon ->
    Activity_monitor.equal_status
      !(mon.Activity_monitor.status)
      Activity_monitor.Inactive

