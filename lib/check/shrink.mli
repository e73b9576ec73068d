(** Counterexample shrinking by delta debugging.

    Used by {!Explore.fuzz} to reduce a failing schedule to a minimal one:
    the predicate re-executes the candidate schedule from scratch (runs are
    deterministic, so re-testing is exact, not statistical). *)

val ddmin : fails:('a list -> bool) -> 'a list -> 'a list
(** [ddmin ~fails items] returns a sublist of [items] (same relative
    order) on which [fails] still holds, such that removing any single
    remaining element makes [fails] false — Zeller's 1-minimality. If
    [fails items] is false, returns [items] unchanged. At most 10 000
    predicate evaluations are made; on exhaustion the best list found so
    far is returned. *)
