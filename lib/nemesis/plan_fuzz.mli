(** Fuzzing (schedule, fault-plan) pairs.

    The fuzzer specializes {!Tbwf_check.Explore.fuzz_faults} to
    {!Fault_plan}: plans are drawn with {!Fault_plan.gen} from the
    fuzzer's own seeded stream and shrunk with {!Fault_plan.shrink}, so a
    counterexample is a minimal (pid schedule, plan) pair — both halves
    serializable ({!Tbwf_sim.Schedule}, {!Fault_plan.to_string}) and
    replayable byte-for-byte.

    {!demo} runs the harness against a deliberately planted bug: a writer
    that ignores an abortable write's ⊥ and records the write as done.
    The register only aborts under contention, and the demo writer runs
    alone — so the bug is unreachable by schedule fuzzing and surfaces
    exactly when a fuzzed plan carries an [Abort_ramp] atom: the
    counterexample genuinely needs both dimensions. *)

val demo_pid_count :
  ?substrate:Tbwf_system.System.substrate -> Fault_plan.t -> int
(** Pids in the demo runtime under [plan]: its two clients, plus the
    replica server pids on message passing — the [n] a witness schedule
    over the demo scenario must be validated against. *)

val demo :
  ?seed:int64 ->
  ?runs:int ->
  ?pool:Tbwf_parallel.Pool.t ->
  ?substrate:Tbwf_system.System.substrate ->
  horizon:int ->
  unit ->
  Fault_plan.t Tbwf_check.Explore.fault_fuzz_outcome
(** Fuzz the planted-bug scenario; with the default seed and [runs] it
    finds, shrinks, and returns a (schedule, one-atom-plan) pair. *)

val demo_replay :
  ?substrate:Tbwf_system.System.substrate ->
  Fault_plan.t ->
  int list ->
  bool * string
(** Replay the whole pid schedule against the demo scenario under [plan]
    (not stopping at a violation) and return whether the invariant held
    throughout, plus the fingerprint of the run's trace (one recorder,
    attached before the first step) — equal
    fingerprints across replays are the byte-identical-replay guarantee. *)
