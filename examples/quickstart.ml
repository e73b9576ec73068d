(* Quickstart: a timeliness-based wait-free shared counter.

   Four processes each run 25 increments through the TBWF universal
   construction (Figure 7 of the paper): a query-abortable counter plus the
   dynamic leader elector Ω∆ built from activity monitors and atomic
   registers. Run with:

     dune exec examples/quickstart.exe
*)

open Tbwf_sim
open Tbwf_registers
open Tbwf_objects
open Tbwf_core

let n = 4
let ops_per_process = 25

let () =
  (* 1. A deterministic simulated shared-memory machine with n processes. *)
  let rt = Runtime.create ~seed:2026L ~n () in

  (* 2. The paper's stack: Ω∆ (Figure 3) + a query-abortable counter +
        the TBWF transformation (Figure 7). The always-abort policy makes
        the counter abort every operation that runs under step contention —
        the harshest adversary the spec allows. *)
  let omega = Tbwf_system.System.(omega rt Tbwf_atomic) in
  let qa =
    Qa_object.create rt ~name:"counter" ~spec:Counter.spec
      ~policy:Abort_policy.Always ()
  in
  let tbwf = Tbwf.make ~qa ~omega_handles:omega () in

  (* 3. Four clients, each incrementing the counter 25 times. *)
  let stats = Workload.fresh_stats ~n in
  Workload.spawn_clients rt ~pids:[ 0; 1; 2; 3 ] ~stats
    ~invoke:(Tbwf.invoke tbwf)
    ~next_op:(Workload.n_times ops_per_process Counter.inc);

  (* 4. Run under a fair schedule until every client is done. *)
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:2_000_000;
  Runtime.stop rt;

  Fmt.pr "per-process completions: %a@."
    Fmt.(array ~sep:(any ", ") int)
    stats.Workload.completed;
  Fmt.pr "final counter value:     %a@." Value.pp (qa.Qa_intf.peek_state ());
  Fmt.pr "expected:                %d@." (n * ops_per_process);
  assert (Value.equal (qa.Qa_intf.peek_state ()) (Value.Int (n * ops_per_process)));
  Fmt.pr "every process finished all its operations — wait-free when everyone \
          is timely.@."
