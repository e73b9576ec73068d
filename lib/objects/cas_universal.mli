(** Lock-free universal construction from compare-and-swap.

    The comparison point from §1.2: "any object has a wait-free (and a
    fortiori TBWF) implementation, provided one is allowed to use some
    strong synchronization primitives like compare-and-swap [9]. But such
    primitives can be slow in practice compared to weaker ones such as
    registers."

    This is the classic state-cell construction: read the whole sequential
    state, apply the operation, CAS the cell from old to new; retry on CAS
    failure. It is {e lock-free} (some concurrent operation always wins the
    CAS) but not wait-free (an individual can lose every race) — the
    stepping stone between obstruction-freedom and what the paper achieves
    with far weaker primitives. ABA is harmless here because states are
    compared structurally: an equal state implies an equal future.

    Experiment E12 races it against the HLM deque and the TBWF stack. *)

type t

val create :
  Tbwf_sim.Runtime.t -> name:string -> spec:Seq_spec.t -> t

val invoke : t -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t
(** Apply an operation, retrying until the CAS lands. Lock-free. *)

val peek_state : t -> Tbwf_sim.Value.t
