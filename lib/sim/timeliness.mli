(** Empirical timeliness classification (paper Definitions 1–2).

    [p] is [q]-timely in a run iff p is correct and there is an i ≥ 1 such
    that every interval containing i steps of q has at least one step of p.
    Over a finite trace we measure, for each gap between consecutive p-steps
    (including the leading and trailing gaps), the number of q-steps inside
    it; p is q-timely with bound i iff every gap holds fewer than i q-steps.

    All functions take [from_step] so callers can ignore a burn-in prefix —
    per the paper (footnote 4), "timely" and "eventually timely" coincide
    when bounds are unknown and per-run. *)

val max_gap : Trace.t -> p:int -> q:int -> from_step:int -> int option
(** Largest number of q-steps in any interval free of p-steps, in the trace
    suffix starting at [from_step]. [None] if p takes no step in the suffix
    (in which case p is certainly not q-timely unless q is also silent). *)

val q_timely : Trace.t -> p:int -> q:int -> from_step:int -> bound:int -> bool
(** True iff every p-free interval of the suffix contains at most [bound]
    q-steps. A silent q makes p trivially q-timely. *)

val timely : Trace.t -> n:int -> p:int -> from_step:int -> bound:int -> bool
(** [p] is q-timely (with [bound]) for every process q ≠ p. *)

val timely_all : Trace.t -> n:int -> from_step:int -> bound:int -> bool array
(** [timely_all trace ~n ~from_step ~bound] equals
    [Array.init n (fun p -> timely trace ~n ~p ~from_step ~bound)], from
    one scan of the suffix: O(n × suffix) time and O(n²) space, where
    [timely] over every p rescans the suffix once per pair. *)
