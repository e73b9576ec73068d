(** Windowed per-pid rate series: a grid of counters, one row per pid,
    one column per window of [window] consecutive steps. This is the
    empirical lens of the paper's rate claims — a timely process shows a
    bounded number of completions in every window of the tail, an
    untimely one's row decays towards zero. *)

type t

val create : ?window:int -> ?retain:int -> n:int -> unit -> t
(** [window] defaults to 1024 steps; raises [Invalid_argument] if < 1.
    [retain] bounds live memory: only the most recent [retain] windows
    keep per-window cells (a ring buffer); older windows fold into
    per-pid evicted totals, so {!total}/{!totals} stay exact while
    {!row} reads zero before the oldest retained window. Omitted = unbounded (the default, and
    the only mode whose {!to_json} reproduces every window). *)

val window : t -> int
val windows : t -> int
(** 1 + the highest window index touched so far. *)

val retain : t -> int option

val bump : t -> pid:int -> step:int -> unit
(** Count one event for [pid] in the window containing [step].
    Out-of-range pids are ignored. *)

val merge : t -> t -> t
(** Fresh series with cell-wise summed counts (commutative, associative).
    Raises [Invalid_argument] if the process counts, window sizes or
    retentions differ. In bounded mode the merged ring starts at the
    later of the two oldest retained windows; cells only one side still held fold into the
    evicted totals. *)

val copy : t -> t
(** Independent deep copy. *)

val row : t -> pid:int -> int array
(** Per-window counts for [pid], zero-padded to {!windows} columns. *)

val total : t -> pid:int -> int
val totals : t -> int array

val mean_per_window : t -> pid:int -> float
val to_json : t -> Json.t
