(** Lamport's bakery lock from atomic registers — the lock-based route to
    mutual exclusion, as a baseline.

    Starvation-free when every process inside its critical section keeps
    taking steps; but a process that stalls (or crashes) while holding the
    lock — or even while merely choosing its ticket — blocks every other
    process forever. This is the failure mode that motivates non-blocking
    progress conditions in the first place (paper §1), and experiment E12
    uses it as the fourth route: under the asymmetric schedule the lock
    serializes everyone behind the slow ticket-holder, and a crash inside
    the critical section is fatal to the system. *)

type t

val create : Tbwf_sim.Runtime.t -> name:string -> t
(** One choosing flag and one ticket register per process. *)

val lock : t -> unit
(** Acquire; blocks (busy-waiting) until the caller holds the lock. Must
    run inside a task. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [lock], run the thunk, [unlock] — the thunk must not raise. *)
