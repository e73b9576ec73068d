(** Deterministic mergeable quantile sketch — the telemetry layer's one
    histogram.

    Fixed-layout log-linear histogram (HDR style): values 0..15 are
    tracked exactly, larger values fall into 16 linear sub-buckets per
    power-of-two range, so every reported quantile is an upper bound on
    the true quantile with relative error at most 1/16 (6.25%). The
    sketch is seed-free; its counter array grows by doubling up to the
    highest bucket observed (at most 944 counters). Observation order
    never matters, and {!merge} is exact element-wise addition —
    associative and commutative — so sketches are byte-stable under
    {!Collector.merge}'s canonical-order fan-out. *)

type t

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
(** Same observation multiset up to the bucket layout, whatever sizes the
    two counter arrays grew to. *)

val to_json : t -> Json.t

val summary_json : t -> Json.t
(** [count], [p50], [p99], [p999], [max] — the tail shape of the world
    and soak aggregate records. *)

(** {2 Log₂ rendering}

    The [tbwf-telemetry/v1] snapshot's [spans.latency.*],
    [spans.abort_streaks] and [net.latency] fields, and the human
    summary, show the sketch folded into log₂ buckets: bucket 0 holds
    the value 0, bucket [j] ≥ 1 holds [[2^(j-1), 2^j - 1]], and the last
    bucket everything from 2^30 up. Every sketch bucket lies inside one
    log₂ bucket, so the fold is exact. *)

val log2_json : t -> Json.t
(** [count], [sum], [max], [mean], [p50]/[p99] upper bounds exact to
    within a power of two (never above the maximum), and the non-empty
    buckets as [{lo; n}]. *)

val pp_log2 : Format.formatter -> t -> unit
(** [n=… mean=… p50≤… p99≤… max=…], or ["no observations"]. *)
