(** The eventually perfect failure detector ◊P (the paper's I3P of [8]),
    built from activity monitors.

    Every process permanently monitors and advertises to every other; a
    process suspects exactly the peers whose monitor currently reports them
    inactive. When {e all} correct processes are timely, this satisfies ◊P:
    strong completeness (crashed processes are eventually suspected by
    every correct process, forever) and eventual strong accuracy (correct
    processes are eventually never suspected).

    The paper's §2 point, made measurable by experiment E13: with even one
    correct-but-non-timely process, accuracy fails forever — the slow
    process is suspected and unsuspected infinitely often at every timely
    observer, so any boosting scheme that waits on ◊P stabilizing never
    stops being disturbed. Ω∆ asks for less (a {e leader} among the timely)
    and therefore stabilizes in the same runs. *)

type t

val install : Tbwf_sim.Runtime.t -> t
(** Full monitor mesh with monitoring and advertising permanently on. *)

val suspected : t -> pid:int -> q:int -> bool
(** Whether [pid] currently suspects [q] (zero-step read of A(pid,q)'s
    output). A peer with no estimate yet is not suspected. *)
