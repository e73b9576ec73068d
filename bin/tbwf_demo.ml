(* Interactive scenario runner: build a TBWF stack with the given
   parameters, run it, and print its degradation verdict. *)

open Cmdliner
open Tbwf_sim
open Tbwf_registers
open Tbwf_objects
open Tbwf_core
open Tbwf_experiments
module Degradation = Tbwf_check.Degradation
module System = Tbwf_system.System

let spec_of_object = function
  | "counter" -> Ok (Counter.spec, Counter.inc)
  | "stack" -> Ok (Stack_obj.spec, Stack_obj.push (Value.Int 1))
  | "queue" -> Ok (Queue_obj.spec, Queue_obj.enqueue (Value.Int 1))
  | "set" -> Ok (Set_obj.spec, Set_obj.add 7)
  | "kv" -> Ok (Kv_store.spec, Kv_store.put "key" (Value.Int 1))
  | "deque" -> Ok (Deque_obj.spec, Deque_obj.push_right (Value.Int 1))
  | other ->
    Error (Fmt.str "unknown object %S (counter|stack|queue|set|kv|deque)" other)

(* The elector as printed, and the registry system that runs it; the
   abortable one runs with [System.build]'s default mesh policy, always
   abort on contention. *)
let omega_of_string = function
  | "atomic" -> Ok (Scenario.Omega_atomic, System.Tbwf_atomic)
  | "abortable" ->
    Ok (Scenario.Omega_abortable Abort_policy.Always, System.Tbwf_abortable)
  | "naive" -> Ok (Scenario.Omega_naive, System.Naive_booster)
  | other -> Error (Fmt.str "unknown omega %S (atomic|abortable|naive)" other)

let positive flag v =
  if v < 1 then Error (Fmt.str "%s must be positive (got %d)" flag v) else Ok ()

(* The verdict judges the second half of the run, which needs a step. *)
let two_halves flag v =
  if v < 2 then Error (Fmt.str "%s must be at least 2 (got %d)" flag v)
  else Ok ()

let pids_in_range ~n flag pids =
  match List.find_opt (fun p -> p < 0 || p >= n) pids with
  | Some p -> Error (Fmt.str "%s: pid %d is not in [0, %d)" flag p n)
  | None -> Ok ()

(* Every argument is checked before anything is built, so bad input is a
   message and exit 2. *)
let resolve n steps object_name omega_name untimely =
  let ( let* ) = Result.bind in
  let* () = positive "-n" n in
  let* () = two_halves "--steps" steps in
  let* () = pids_in_range ~n "--untimely" untimely in
  let* spec_op = spec_of_object object_name in
  let* omega = omega_of_string omega_name in
  Ok (spec_op, omega)

let demo ~n ~steps ~seed ~spec ~op ~omega:(omega, system) ~untimely
    ~non_canonical =
  let timely = List.filter (fun p -> not (List.mem p untimely)) (List.init n Fun.id) in
  (* One registry stack per omega choice; the demo only varies the elector,
     never the QA construction. *)
  let stack =
    System.build ~seed:(Int64.of_int seed) ~canonical:(not non_canonical) ~n
      ~spec ~next_op:(Workload.forever op)
      ~client_pids:(List.init n Fun.id) system
  in
  let policy = Scenario.degraded_policy ~n ~timely in
  let rt = stack.System.rt in
  Runtime.run rt ~policy ~steps:(steps / 2);
  let from = Runtime.now rt in
  let mid = Array.copy stack.System.stats.Workload.completed in
  Runtime.run rt ~policy ~steps:(steps / 2);
  let verdict =
    Degradation.check
      ~min_ops:
        (Degradation.required_tail_ops ~cost:1 ~n ~tail:(Runtime.now rt - from))
      ~prediction:(Scenario.degraded_prediction ~n ~timely ~from)
      ~trace:(Option.get stack.System.trace) ~completed_before:mid
      ~completed_after:stack.System.stats.Workload.completed ()
  in
  (* The list is one string, with no break hint: Format counts the bytes
     of "Ω∆" as columns and would otherwise break the line before it. *)
  Fmt.pr "TBWF %s over Ω∆(%a), n=%d, %d steps, untimely=[%s]@."
    spec.Seq_spec.name Scenario.pp_omega_impl omega n steps
    (String.concat "; " (List.map string_of_int untimely));
  Fmt.pr "%a" Degradation.pp_verdict verdict;
  Fmt.pr "final object state: %a@." Value.pp (stack.System.qa.Qa_intf.peek_state ());
  Fmt.pr "TBWF holds (timely kept progressing): %b@." verdict.Degradation.holds;
  Runtime.stop rt;
  0

let run n steps seed object_name omega_name untimely non_canonical =
  match resolve n steps object_name omega_name untimely with
  | Error msg ->
    Fmt.epr "%s@." msg;
    2
  | Ok ((spec, op), omega) ->
    demo ~n ~steps ~seed ~spec ~op ~omega ~untimely ~non_canonical

let n =
  Arg.(value & opt int 4 & info [ "n" ] ~doc:"Number of processes.")

let steps =
  Arg.(value & opt int 200_000 & info [ "steps" ] ~doc:"Total steps to run.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let object_name =
  Arg.(
    value & opt string "counter"
    & info [ "object" ] ~doc:"Shared object type: counter|stack|queue|set|kv|deque.")

let omega_name =
  Arg.(
    value & opt string "atomic"
    & info [ "omega" ] ~doc:"Leader elector: atomic|abortable|naive.")

let untimely =
  Arg.(
    value & opt (list int) []
    & info [ "untimely" ] ~doc:"Pids scheduled with ever-growing step gaps.")

let non_canonical =
  Arg.(
    value & flag
    & info [ "non-canonical" ]
        ~doc:"Drop Figure 7's line-2 wait (demonstrates monopolization).")

let cmd =
  let doc = "run one TBWF scenario and report per-process progress" in
  Cmd.v
    (Cmd.info "tbwf_demo" ~doc)
    Term.(
      const run $ n $ steps $ seed $ object_name $ omega_name $ untimely
      $ non_canonical)

let () = exit (Cmd.eval' cmd)
