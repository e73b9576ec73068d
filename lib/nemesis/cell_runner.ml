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
  monitor : Sink.t option;
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
    max 2
      (Degradation.required_tail_ops ~n ~tail
      / cost_factor stack.System.substrate)
  in
  (* The tail boundary and floor are plan-derived, so the online checker
     is armed before the first step. Tee order fixes what each streamed
     record sees: a monitor (first) has closed exactly the record's
     window, the collector emits, and the checker (last) has consumed
     exactly the steps the record covers. *)
  let online = Degradation.Online.create ~min_ops prediction in
  let checked =
    Sink.tee (Collector.sink telemetry) (Degradation.Online.sink online)
  in
  Runtime.set_sink rt
    (match stream with
    | Some { monitor = Some m; _ } -> Sink.tee m checked
    | _ -> checked);
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
  let measured_before = Collector.app_completed telemetry in
  Runtime.run rt ~policy ~steps:tail;
  let measured_after = Collector.app_completed telemetry in
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
      Array.init n (fun pid -> measured_after.(pid) - measured_before.(pid));
    cr_completed_before = completed_before;
  }
