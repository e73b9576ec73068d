open Tbwf_sim

type emergent = {
  em_replicas : int;
  em_live : int list;
  em_reach : (int * int list) list;
}

type prediction = {
  pred_n : int;
  pred_timely : int list;
  pred_from : int;
  pred_bound : int;
  pred_emergent : emergent option;
}

let emergent_majority em = (em.em_replicas / 2) + 1

let emergent_quorate em pid =
  match List.assoc_opt pid em.em_reach with
  | None -> false
  | Some rs -> List.length rs >= emergent_majority em

(* [quorate <> Some false]: only a process known to miss a quorum loses
   its guarantee. *)
let not_unquorate = function Some false -> false | Some true | None -> true

type process_verdict = {
  dv_pid : int;
  dv_predicted_timely : bool;
  dv_quorate : bool option;
  dv_sched_timely : bool option;
  dv_tail_ops : int;
  dv_tail_steps : int;
  dv_ok : bool;
}

type verdict = {
  holds : bool;
  from_step : int;
  processes : process_verdict list;
}

let tail_rate_denominator = 1_500

(* The one clamp: dividing by [cost] inside the floor equals dividing the
   shared-memory floor by it and clamping again, since
   [(t / a) / b = t / (a * b)] for positive integers. *)
let required_tail_ops ~cost ~n ~tail =
  Int.max 2 (tail / (tail_rate_denominator * (n + 1) * cost))

(* Shared by [check] and [Online.verdict], so the post-hoc oracle and the
   online checker cannot assemble a verdict differently. [sched_timely]
   is asked only of predicted-timely processes. *)
let assemble p ~min_ops ~tail_ops ~tail_steps ~sched_timely =
  let processes =
    List.init p.pred_n (fun pid ->
        (* On a message-passing substrate the process's register
           timeliness is emergent: a timely schedule is not enough, it
           must also reach a live majority of replicas over timely
           links, or its quorum operations legitimately stall. *)
        let quorate =
          Option.map (fun em -> emergent_quorate em pid) p.pred_emergent
        in
        let predicted_timely =
          List.mem pid p.pred_timely && not_unquorate quorate
        in
        let tail_ops = tail_ops pid in
        (* Exempt: the plan withdrew this process's guarantee (crashed or
           made untimely). It may stall; nothing to check. *)
        let sched_timely, ok =
          if not predicted_timely then None, true
          else
            let s = sched_timely pid in
            Some s, tail_ops >= min_ops && s
        in
        {
          dv_pid = pid;
          dv_predicted_timely = predicted_timely;
          dv_quorate = quorate;
          dv_sched_timely = sched_timely;
          dv_tail_ops = tail_ops;
          dv_tail_steps = tail_steps pid;
          dv_ok = ok;
        })
  in
  {
    holds = List.for_all (fun v -> v.dv_ok) processes;
    from_step = p.pred_from;
    processes;
  }

let tail_steps trace ~pid ~from_step =
  let len = Trace.length trace in
  let count = ref 0 in
  for i = from_step to len - 1 do
    if Trace.pid_at trace i = pid then incr count
  done;
  !count

let check ?(min_ops = 1) ~prediction ~trace ~completed_before
    ~completed_after () =
  let p = prediction in
  (* A trace with no step in the tail (a recorder never attached, say)
     has no gaps, so every schedule would look vacuously timely. *)
  if Trace.length trace <= p.pred_from then
    invalid_arg
      "Degradation.check: the trace has no step at or after pred_from \
       (record the run with a Trace.recorder, or decide it with \
       Degradation.Online)";
  if Array.length completed_before <> p.pred_n
     || Array.length completed_after <> p.pred_n
  then invalid_arg "Degradation.check: completed arrays must have length n";
  let sched_timely =
    Timeliness.timely_all trace ~n:p.pred_n ~from_step:p.pred_from
      ~bound:p.pred_bound
  in
  assemble p ~min_ops
    ~tail_ops:(fun pid -> completed_after.(pid) - completed_before.(pid))
    ~tail_steps:(fun pid -> tail_steps trace ~pid ~from_step:p.pred_from)
    ~sched_timely:(fun pid -> sched_timely.(pid))

module Online = struct
  (* The same contract, decided incrementally from the sink stream instead
     of post-hoc from the recorded trace. Tail steps of pids below n are
     numbered 0, 1, 2, … by [o_clock]. For each pid, [o_last.(p)] is the
     number of its last tail step (-1 before it steps) and its ring, the
     [o_width = bound + 1] ints at [o_ring.(p*width ..)], holds the numbers
     of its last [width] tail steps (-1 where it has taken fewer), oldest
     at [o_head.(p)]. q took more than [bound] steps since p's last step
     exactly when q's oldest ring entry is later than [o_last.(p)], so a
     step by p needs to look at the other pids only when more than
     [bound] tail steps passed since p's last one, which is rare for a
     timely p; a gap found too wide marks p in [o_late] for good. This
     replays [Timeliness.max_gap] (the gap before p's first step counts
     from the tail boundary, the one after its last is checked at
     [verdict]), and the verdict is then built by [check]'s own
     [assemble], so for any finished run [verdict t = check ~prediction
     ~trace ...] field for field — the differential test in
     [test/test_nemesis.ml] enforces this across the full campaign ×
     system matrix on both substrates. *)

  type t = {
    o_prediction : prediction;
    o_n : int;
    o_from : int;
    o_min_ops : int;
    o_bound : int;
    o_width : int;  (* ring width per pid: bound + 1, at least 1 *)
    o_completed : int array;  (* per-pid completions, whole run *)
    mutable o_before : int array option;
        (* [o_completed] snapshotted at the first event with
           step ≥ pred_from — the online analogue of [completed_before] *)
    mutable o_clock : int;  (* tail steps of pids below n so far *)
    o_own : int array;  (* per-pid own steps in the tail *)
    o_last : int array;  (* number of each pid's last tail step, or -1 *)
    o_head : int array;  (* index of each pid's oldest ring entry *)
    o_ring : int array;  (* each pid's last [o_width] tail step numbers *)
    o_late : bool array;  (* a closed gap of the pid exceeded the bound *)
  }

  let create ?(min_ops = 1) prediction =
    let n = prediction.pred_n in
    let bound = prediction.pred_bound in
    let width = Int.max 1 (bound + 1) in
    {
      o_prediction = prediction;
      o_n = n;
      o_from = prediction.pred_from;
      o_min_ops = min_ops;
      o_bound = bound;
      o_width = width;
      o_completed = Array.make n 0;
      o_before = None;
      o_clock = 0;
      o_own = Array.make n 0;
      o_last = Array.make n (-1);
      o_head = Array.make n 0;
      o_ring = Array.make (n * width) (-1);
      o_late = Array.make n false;
    }

  (* Snapshot the tail boundary the moment any event at or past
     [pred_from] arrives. The runtime emits [on_step] before the step's
     own invokes/responds/signals, so the first such event is the
     boundary step itself. Signals roll too, in case a sink is fed a
     partial stream; invokes and responds need not, since they never
     move [o_completed]. *)
  let snapshot t = t.o_before <- Some (Array.copy t.o_completed)

  let roll t ~step =
    if step >= t.o_from && Option.is_none t.o_before then snapshot t

  (* Whether some q other than [pid] took more than [bound] tail steps
     after tail step [last]: the one O(n) loop, run only when more than
     [bound] tail steps passed since [last]. *)
  let[@inline never] overtaken t ~pid ~last =
    let width = t.o_width and ring = t.o_ring and head = t.o_head in
    let found = ref false in
    for q = 0 to t.o_n - 1 do
      if q <> pid && ring.((q * width) + head.(q)) > last then found := true
    done;
    !found

  let on_step t ~step ~pid =
    if step >= t.o_from then begin
      if Option.is_none t.o_before then snapshot t;
      if pid >= 0 && pid < t.o_n then begin
        let now = t.o_clock in
        t.o_clock <- now + 1;
        let last = t.o_last.(pid) in
        if now - last - 1 > t.o_bound && (not t.o_late.(pid))
           && overtaken t ~pid ~last
        then t.o_late.(pid) <- true;
        t.o_last.(pid) <- now;
        t.o_own.(pid) <- t.o_own.(pid) + 1;
        let h = t.o_head.(pid) in
        t.o_ring.((pid * t.o_width) + h) <- now;
        t.o_head.(pid) <- (if h + 1 = t.o_width then 0 else h + 1)
      end
    end

  let on_signal t ~step ~pid signal =
    roll t ~step;
    match signal with
    | Sink.Op_complete ->
      if pid >= 0 && pid < t.o_n then
        t.o_completed.(pid) <- t.o_completed.(pid) + 1
    | _ -> ()

  let sink t =
    {
      Sink.active = true;
      on_step = (fun ~step ~pid ~layer:_ -> on_step t ~step ~pid);
      on_invoke = Sink.nil.on_invoke;
      on_respond = Sink.nil.on_respond;
      on_signal = (fun ~step ~pid s -> on_signal t ~step ~pid s);
    }

  (* [Timeliness.q_timely] for every q at once: every closed gap of p
     within the bound ([o_late]), and the open one after its last step
     too. A p that never stepped is timely only while no other pid
     stepped either (its gap 0 is still within a non-negative bound); a
     negative bound admits no gap at all. *)
  let sched_timely t ~pid =
    let others = t.o_n > 1 in
    if t.o_own.(pid) = 0 then (not others) || (t.o_bound >= 0 && t.o_clock = 0)
    else if t.o_bound < 0 then not others
    else
      let last = t.o_last.(pid) in
      not
        (t.o_late.(pid)
        || (t.o_clock - last - 1 > t.o_bound && overtaken t ~pid ~last))

  let verdict t =
    let before =
      (* No event ever reached the tail: the tail is empty and the
         boundary counters are simply the final counters. *)
      match t.o_before with Some b -> b | None -> t.o_completed
    in
    assemble t.o_prediction ~min_ops:t.o_min_ops
      ~tail_ops:(fun pid -> t.o_completed.(pid) - before.(pid))
      ~tail_steps:(fun pid -> t.o_own.(pid))
      ~sched_timely:(fun pid -> sched_timely t ~pid)
end

let timely_tail_ops verdict =
  List.filter_map
    (fun v -> if v.dv_predicted_timely then Some v.dv_tail_ops else None)
    verdict.processes

let min_timely_tail_ops verdict =
  match timely_tail_ops verdict with
  | [] -> None
  | ops -> Some (List.fold_left Int.min max_int ops)

module Json = Tbwf_telemetry.Json

let process_json v =
  let opt_bool = function None -> Json.Null | Some b -> Json.Bool b in
  Json.Obj
    [
      "pid", Json.Int v.dv_pid;
      "predicted_timely", Json.Bool v.dv_predicted_timely;
      "quorate", opt_bool v.dv_quorate;
      "sched_timely", opt_bool v.dv_sched_timely;
      "tail_ops", Json.Int v.dv_tail_ops;
      "tail_steps", Json.Int v.dv_tail_steps;
      "ok", Json.Bool v.dv_ok;
    ]

let verdict_json verdict =
  Json.Obj
    [
      "holds", Json.Bool verdict.holds;
      "from_step", Json.Int verdict.from_step;
      "processes", Json.Arr (List.map process_json verdict.processes);
    ]

let pp_process fmt v =
  Fmt.pf fmt "p%d %s: %d ops in %d own steps of the tail%s%s" v.dv_pid
    (if v.dv_predicted_timely then
       match v.dv_quorate with
       | Some true -> "timely+quorate"
       | Some false | None -> "timely "
     else
       match v.dv_quorate with
       | Some false -> "exempt(no-quorum)"
       | Some true | None -> "exempt ")
    v.dv_tail_ops v.dv_tail_steps
    (match v.dv_sched_timely with
    | Some false -> " [schedule not timely!]"
    | Some true | None -> "")
    (if v.dv_ok then "" else " FAIL")

let pp_verdict fmt verdict =
  Fmt.pf fmt "degradation contract %s from step %d@."
    (if verdict.holds then "HOLDS" else "VIOLATED")
    verdict.from_step;
  List.iter (fun v -> Fmt.pf fmt "  %a@." pp_process v) verdict.processes
