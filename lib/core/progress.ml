open Tbwf_sim

type process_report = {
  pid : int;
  timely : bool;
  issued : int;
  completed : int;
}

let reports trace ~n ~stats ~from_step ~bound =
  let timely = Timeliness.timely_all trace ~n ~from_step ~bound in
  List.init n (fun pid ->
      {
        pid;
        timely = timely.(pid);
        issued = stats.Workload.issued.(pid);
        completed = stats.Workload.completed.(pid);
      })

let tbwf_holds_finite reports =
  List.for_all
    (fun r -> (not r.timely) || r.completed = r.issued)
    reports

let tbwf_holds_endless ~before ~after ~timely =
  List.for_all
    (fun pid ->
      after.Workload.completed.(pid) > before.Workload.completed.(pid))
    timely

let lock_freedom_holds ~before ~after =
  let n = Array.length before.Workload.completed in
  let progressed = ref false in
  for pid = 0 to n - 1 do
    if after.Workload.completed.(pid) > before.Workload.completed.(pid) then
      progressed := true
  done;
  !progressed

let snapshot stats =
  {
    Workload.issued = Array.copy stats.Workload.issued;
    completed = Array.copy stats.Workload.completed;
    last_response = Array.copy stats.Workload.last_response;
  }

let pp_report fmt r =
  Fmt.pf fmt "p%d %s completed %d/%d" r.pid
    (if r.timely then "timely " else "untimely")
    r.completed r.issued
