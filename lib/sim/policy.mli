(** Schedule policies.

    A policy decides which runnable process takes each step. Timeliness in
    the sense of the paper (Definitions 1–2) is a property of the schedule,
    so policies are how experiments construct timely, non-timely, flickering,
    crashing and solo processes.

    Policies may keep internal mutable state; create a fresh policy per run. *)

type t

val next : t -> step:int -> runnable:int array -> rng:Rng.t -> int
(** Pick the process to run at [step] among [runnable] (non-empty, sorted
    ascending). [-1] means nobody is willing to run this step; the runtime
    records an idle step and moves on. Called once per step by the runtime,
    so the result is a bare int rather than an option. *)

val round_robin : unit -> t
(** Perfectly fair rotation: every process is timely with bound ≈ n. *)

val weighted : (int * float) array -> t
(** Seeded-random choice with the given per-pid weights: {!of_patterns}
    over [Weighted] assignments. Pids absent from the list get weight 1.0,
    a pid listed twice takes its last weight, and negative pids are
    ignored. A pid with a much smaller weight than the rest has unbounded
    expected gaps, i.e. is (statistically) not timely. *)

(** Per-process step patterns, compiled into a policy by {!of_patterns}. *)
type pattern =
  | Every of { period : int; offset : int }
      (** hard claim on steps ≡ offset (mod period): a timely process with
          bound on the order of [period] *)
  | Weighted of float
      (** soft participant chosen with this weight on unclaimed steps *)
  | Flicker of { active : int; sleep : int; growth : float }
      (** alternates between [active] steps of eager participation and a
          silent phase whose length starts at [sleep] and is multiplied by
          [growth] after every cycle — with [growth > 1.0] the gaps grow
          without bound, so the process is not timely *)
  | Slowing of { initial_gap : int; growth : float; burst : int }
      (** takes a burst of [burst] steps (competing for them against other
          claimants), then pauses for a gap that starts at [initial_gap] and
          is multiplied by [growth] after every burst: a process that keeps
          decelerating forever. With [growth > 1.0] it is not timely, yet it
          never stops and never looks "willingly inactive" — the adversary
          that defeats boosting algorithms with aggressively adaptive (e.g.
          doubling) timeouts. Make [burst] a small multiple of the
          process's task count so each burst produces at least one
          heartbeat write. *)
  | Silent  (** never scheduled (until a [Switch_at] changes it) *)
  | Switch_at of int * pattern * pattern
      (** [Switch_at (s, before, after)]: behave as [before] for steps < s,
          as [after] afterwards *)

val of_patterns : (int * pattern) list -> t
(** Compile per-pid patterns. Pids not listed behave as [Weighted 1.0];
    when a pid is listed twice the last entry wins, and negative pids are
    ignored. Hard claims win over soft participants; simultaneous hard
    claims are served least-recently-run first, so a set of [Every]
    processes with the same period remains timely (with a proportionally
    larger bound).

    Cost: each pid has one slot holding its resolved pattern, its next
    [Every] claim, when it last ran and its lazily created slowing and
    flicker state. The policy also keeps a claim calendar: the runnable
    pids of the last pick split into [Every], [Slowing] and soft
    ([Weighted], [Flicker]) pids, each in runnable order, and the
    [Every] pids filed in a wheel by next claiming step. A pick compares
    [runnable] with the calendar's array by identity (one pointer
    comparison, whatever the number of pids), reads its step's wheel bucket,
    re-filing each pid in it a period later, tests each [Slowing] pid's
    due step, and on an unclaimed step draws over the soft pids only
    (the weighted draw runs only when there is one) or walks the [Every]
    pids for the spare step's candidate. No pick divides, and nothing is
    allocated beyond the float a draw gets from {!Rng.float}.

    A pick first rebuilds the calendar when
    - [runnable] is not the array the last rebuild was handed (compared
      by identity: the policy keeps that array, so a caller may pass a
      fresh array every step, at the cost of a rebuild each, but must
      never write into an array it has handed over),
    - [step] is not the last pick's step plus one, or
    - some runnable pid's [Switch_at] chain resolves differently from
      [step] on (a boundary).
    A rebuild reads every runnable pid's slot: it walks a [Switch_at]
    chain again when the step left the range its last walk resolved,
    divides to catch an [Every] pid up when its due step was overtaken
    or lies a period or more ahead, creates slowing state on first
    sight, and allocates only when the runnable set outgrows every
    earlier one (the slot table, too, grows once when a pid beyond it
    first shows up, e.g. a late joiner). The wheel's size is the least
    power of two at or above the largest runnable [Every] period or twice
    the number of [Every] pids, whichever is smaller, so its memory
    depends on the set, not on the periods; when a period is the larger,
    a bucket may also hold pids due whole laps later, and a pick steps
    past them.

    Steps: the runtime asks about steps 0, 1, 2, ... in order and
    replaces its runnable array only when membership changes, so nearly
    every pick is one without a rebuild; an [Every] rotation walks its
    [Every] pids only on its one spare step per round. Steps may also
    skip ahead or go backwards: either rebuilds, so every pick equals
    that of a policy that resolves each pattern afresh at every pick (the
    slowing and flicker states advance with the steps they are asked
    about either way).

    @raise Invalid_argument if any pattern, including one nested in a
    [Switch_at] branch, has [Every { period }] with [period < 1] or
    [Flicker { active }] with [active < 1]. *)

val solo_after : n:int -> pid:int -> step:int -> t
(** All processes run with equal weight before [step]; afterwards only
    [pid] takes steps. Used to check obstruction-freedom. *)

val of_script : int list -> t
(** Follow an explicit choice script: at step i, run the runnable process
    with index [script.(i) mod (number of runnable processes)] (in
    ascending-pid order). Once the script is exhausted, returns [-1]
    forever — the driver for exhaustive schedule exploration
    ({!Tbwf_check.Explore}). *)

val branching_of_script : t -> int list
(** For a policy built with {!of_script}: the number of runnable choices
    that was available at each scripted step, in order — the information an
    exhaustive explorer needs to enumerate sibling schedules. *)

val replay : int list -> t
(** Re-execute a recorded schedule: at step i, run the pid at position i of
    the list (an entry of -1, recorded for an idle step, lets the step pass
    idle again). Because runs are deterministic, replaying
    the [Trace.schedule] of its recorded trace on a fresh identically-seeded
    runtime reproduces the original run byte for byte. An entry whose pid
    is not currently runnable — only possible when the schedule came from a
    {e different} scenario — is treated as idle so the step numbering stays
    aligned. Once the list is exhausted, returns [-1] forever.

    That leniency is what schedule shrinking needs, but it also means a
    counterexample replayed against code that has drifted since it was
    recorded can silently diverge into a passing run. Use {!replay_strict}
    when a mismatch should be loud. *)

exception
  Replay_mismatch of { step : int; pid : int; runnable : int array }
(** Raised by a {!replay_strict} policy when the recorded [pid] is not
    runnable at [step] ([runnable] is what was). *)

val replay_strict : int list -> t
(** Like {!replay}, but a recorded non-idle pid that is not runnable raises
    {!Replay_mismatch} instead of passing idle: replaying a committed
    counterexample against drifted code fails loudly instead of quietly
    checking a different schedule. Recorded idle steps (-1) never
    mismatch. *)
