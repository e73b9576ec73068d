open Tbwf_sim
open Tbwf_registers
open Tbwf_check
open Tbwf_core
open Tbwf_telemetry
module System = Tbwf_system.System

let net_cost_factor = 4

let cost_factor = function
  | System.Shared_memory -> 1
  | System.Message_passing _ -> net_cost_factor

let validate ~n ~horizon ~window ~retain =
  let fail fmt = Format.kasprintf invalid_arg fmt in
  if n < 2 then fail "n must be at least 2 (got %d)" n;
  if horizon < 1 then fail "horizon must be positive (got %d)" horizon;
  if window < 1 then fail "window must be positive (got %d)" window;
  Option.iter
    (fun r -> if r < 1 then fail "retain must be positive (got %d)" r)
    retain

type stream = {
  every : int;
  fields : Json.t -> (string * Json.t) list;
  emit : Json.t -> unit;
}

type t = {
  cr_stack : System.stack;
  cr_telemetry : Collector.t;
  cr_verdict : Degradation.verdict;
  cr_prediction : Degradation.prediction;
  cr_min_ops : int;
  cr_tail_ops : int array;
  cr_completed_before : int array;
}

(* The run's observers as one sink per event kind: the build's sink (its
   collector, its trace recorder if it keeps one, and any monitor it teed
   ahead of them) first, so a streamed record is emitted before the
   checker (last) has consumed exactly the steps the record covers. The
   checker reads only steps and [Op_complete] signals, so invokes and
   responds go to the build's sink with no hop. Its step hook is armed
   only for the tail: before [pred_from] it is a no-op
   ([Degradation.Online.on_step]), so the head phase feeds the build's
   own step callback and nothing else. *)
let observers ~base online ~armed =
  {
    base with
    Sink.active = true;
    on_step =
      (if armed then fun ~step ~pid ~layer ->
         base.Sink.on_step ~step ~pid ~layer;
         Degradation.Online.on_step online ~step ~pid
       else base.Sink.on_step);
    on_signal =
      (fun ~step ~pid s ->
        base.Sink.on_signal ~step ~pid s;
        Degradation.Online.on_signal online ~step ~pid s);
  }

let run ~plan ~build ~stream =
  let n = Fault_plan.n plan in
  let horizon = Fault_plan.horizon plan in
  (* The plan's channel-level atoms compile into the abort policies of
     the registers they target. *)
  let policy target =
    Fault_plan.abort_policy plan ~target ~base:Abort_policy.Always
  in
  let stack =
    build ~qa_policy:(policy Fault_plan.Qa)
      ~mesh_policy:(policy Fault_plan.Omega_mesh)
  in
  let rt = stack.System.rt in
  let telemetry = Option.get stack.System.telemetry in
  Fault_plan.install_crashes plan rt;
  let snap = max (Fault_plan.settle_step plan) (horizon - (horizon / 4)) in
  let prediction =
    { (Fault_plan.prediction plan) with Degradation.pred_from = snap }
  in
  let tail = horizon - snap in
  let min_ops =
    Degradation.required_tail_ops
      ~cost:(cost_factor stack.System.substrate) ~n ~tail
  in
  (* The tail boundary and floor are plan-derived, so the online checker
     exists before the first step; its step hook is armed at the tail
     boundary. Nothing the build attached is lost: its sink is called
     first on every event. *)
  let online = Degradation.Online.create ~min_ops prediction in
  let observers = observers ~base:(Runtime.sink rt) online in
  Runtime.set_sink rt (observers ~armed:false);
  Option.iter
    (fun s ->
      Collector.emit_every telemetry ~every:s.every
        ~extra:(fun ~window:_ ->
          s.fields
            (Degradation.verdict_json (Degradation.Online.verdict online)))
        s.emit)
    stream;
  let policy = Fault_plan.policy plan in
  Runtime.run rt ~policy ~steps:snap;
  let completed_before = Array.copy stack.System.stats.Workload.completed in
  Runtime.set_sink rt (observers ~armed:true);
  Runtime.run rt ~policy ~steps:tail;
  Collector.stream_flush telemetry;
  let verdict = Degradation.Online.verdict online in
  Runtime.stop rt;
  {
    cr_stack = stack;
    cr_telemetry = telemetry;
    cr_verdict = verdict;
    cr_prediction = prediction;
    cr_min_ops = min_ops;
    cr_tail_ops =
      Array.of_list
        (List.map
           (fun v -> v.Degradation.dv_tail_ops)
           verdict.Degradation.processes);
    cr_completed_before = completed_before;
  }
