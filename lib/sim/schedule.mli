(** Serializable schedules.

    A schedule is the per-step pid sequence of a run (-1 for idle steps),
    together with the process count and runtime seed it was recorded
    against. Because runs are pure functions of (seed, schedule, spawned
    code), a serialized schedule replays a run {e byte-identically}: any
    counterexample the explorer or fuzzer finds, and any experiment run,
    can be saved to a file, replayed, and committed as a regression test.

    The text format is one header line and one run-length-encoded body
    line; [#]-prefixed lines and blank lines are ignored:

    {v
    tbwf-sched v1 n=3 seed=42
    0x3 1 _x2 0
    v}

    reads "three steps of pid 0, one of pid 1, two idle steps, one of
    pid 0" on a 3-process runtime seeded with 42. *)

type t

val make : ?seed:int64 -> n:int -> int list -> t
(** [make ~n pids] wraps a pid-per-step list. [seed] defaults to the
    default {!Runtime.create} seed. Raises [Invalid_argument] on a pid
    outside [-1 .. n-1]. *)

val n : t -> int
val seed : t -> int64
val pids : t -> int list
val length : t -> int

val to_string : t -> string
val of_string : string -> (t, string) result
(** Round-trip: [of_string (to_string t)] reproduces [t] exactly. *)

val pp : Format.formatter -> t -> unit
