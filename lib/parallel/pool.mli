(** A dependency-free OCaml 5 [Domain] pool for run-level fan-out.

    The repo's workloads — nemesis campaign cells, (schedule, fault-plan)
    fuzz batches, explore root branches, the experiment registry — are
    independent seeded simulations. The pool runs them across domains
    with chunked work distribution and merges results in {e canonical
    task order}: output is byte-identical for any domain count, and one
    domain bypasses domains entirely (a plain sequential loop).

    Determinism contract: tasks must not share mutable state (each builds
    its own runtime/stack) and must be pure functions of their input —
    then [map] over [d] domains equals [map] over 1 domain, slot for
    slot. The simulation {e inside} each task stays single-threaded; the
    parallelism lives strictly between runs. See docs/PARALLELISM.md. *)

type t

type error = {
  task : int;  (** index of the failed task *)
  message : string;  (** [Printexc.to_string] of the escaped exception *)
  backtrace : string;
}

exception Task_failed of error list
(** Raised by the non-[try_] mappers after {e all} tasks finished, listing
    every failed task in index order: one raising task never kills the
    pool or the other tasks. *)

val default_domains : unit -> int
(** [min 8 (Domain.recommended_domain_count ())], at least 1. *)

val create : ?domains:int -> unit -> t
(** [domains] defaults to {!default_domains}; clamped to [1, 64]. *)

val domains : t -> int

val fold :
  t -> tasks:int -> (int -> 'a) -> init:'acc -> ('acc -> 'a -> 'acc) -> 'acc
(** [fold t ~tasks f ~init step] is
    [List.fold_left step init [f 0; ...; f (tasks - 1)]], run in batches
    of 32 tasks (a constant, not a function of the pool): each batch runs
    across the domains, then folds in task order before the next starts.
    A one-domain pool folds each task as it returns. At most one batch of
    results is live. If a task raises, its batch finishes and
    {!Task_failed} (absolute task indices) is raised before it folds. *)

val map : t -> 'b array -> ('b -> 'a) -> 'a array
(** [map t xs f] is [Array.map f xs] distributed over the pool. Raises
    {!Task_failed} (after all tasks completed) if any task raised. *)

val try_map : t -> 'b array -> ('b -> 'a) -> ('a, error) result array
