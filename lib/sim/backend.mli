(** Execution backend selection.

    The simulator has two ways to execute a system's processes:

    - {!Reference}: the effects-based runtime — task bodies are ordinary
      OCaml code suspended with effect handlers at every step boundary.
      This is the executable semantics: slow, direct, obviously faithful
      to the paper's pseudo-code.
    - {!Compiled}: the client processes compiled into flat step tables —
      a direct-threaded interpreter over dense int-indexed program
      counters and registers (see [Tbwf_compiled]), eliminating
      effects-handler dispatch and per-step closure allocation from the
      hot path. The Ω∆ and its activity monitors are the same on both
      backends: over shared memory they already run as step machines.

    The two backends are required to be observationally byte-identical:
    same {!Trace.fingerprint}, same telemetry snapshots, for every
    (system, seed, policy, fault plan). [Tbwf_check.Differential] and
    [test/test_differential.ml] enforce the contract.

    Only [Tbwf_system.System.build ?backend] selects a backend. Every CLI,
    campaign, soak and world run uses the reference backend; the compiled
    one is exercised by the differential tests and the benchmark's
    [compiled.*] layer. *)

type t = Reference | Compiled
