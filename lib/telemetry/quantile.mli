(** Deterministic mergeable quantile sketch.

    Fixed-layout log-linear histogram (HDR style): values 0..15 are
    tracked exactly, larger values fall into 16 linear sub-buckets per
    power-of-two range, so every reported quantile is an upper bound on
    the true quantile with relative error at most 1/16 (6.25%). The
    sketch is seed-free and fixed-size (≤ {!n_buckets} counters);
    observation order never matters, and {!merge} is exact element-wise
    addition — associative and commutative — so sketches are byte-stable
    under {!Collector.merge}'s canonical-order fan-out. *)

type t

val n_buckets : int

val create : unit -> t

val observe : t -> int -> unit
(** Record one observation (negative values clamp to 0). *)

val count : t -> int
val max_value : t -> int
val mean : t -> float

val quantile : t -> float -> int
(** [quantile t q] is the smallest bucket upper bound covering at least
    [⌈q·count⌉] observations, clamped to the observed maximum; [0] when
    empty. *)

val p50 : t -> int
val p99 : t -> int
val p999 : t -> int

val merge : t -> t -> t
(** Fresh sketch holding both inputs' observations. Exactly associative
    and commutative. *)

val equal : t -> t -> bool

val to_json : t -> Json.t

val summary_json : t -> Json.t
(** [count], [p50], [p99], [p999], [max] — the tail shape of the world
    and soak aggregate records. *)

val pp : Format.formatter -> t -> unit
