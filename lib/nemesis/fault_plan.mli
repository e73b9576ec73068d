(** Declarative, composable fault plans.

    A fault plan is the nemesis's script: a set of {!atom}s over a fixed
    process count [n] and step budget [horizon], each atom an independent
    fault the plan injects at a given step (or over a given window). Plans
    are pure data — deterministic to compile, cheap to serialize
    ({!to_string}/{!of_string} round-trip through a compact text format in
    the style of {!Tbwf_sim.Schedule}), and shrinkable atom-by-atom — so a
    campaign, a fuzzer counterexample, and a regression test are all the
    same object.

    Compilation targets the hooks the simulator already has:
    schedule-affecting atoms ([Slow], [Timely], [Flicker]) compile to a
    {!Tbwf_sim.Policy} built from [Switch_at] chains over a timely base
    rotation; [Crash] compiles to {!Tbwf_sim.Runtime.crash_at}; the
    channel-level atoms ([Abort_ramp], [Staleness]) compile to an
    {!Tbwf_registers.Abort_policy} wrapper. A plan also predicts its own
    outcome ({!prediction}): which processes remain timely once the last
    fault lands — the input to the {!Tbwf_check.Degradation} checkers. *)

(** Which register family a channel-level atom targets. *)
type target =
  | Qa  (** the query-abortable object the clients operate on *)
  | Omega_mesh  (** the abortable heartbeat/message mesh under Ω∆ *)

(** A network endpoint, for the v2 network atoms: client [c<i>] (pid [i])
    or replica server [r<j>] (pid [n + j] in a message-passing runtime). *)
type node = Client of int | Replica of int

type atom =
  | Crash of { pid : int; at : int }
      (** the process halts forever at step [at]; any in-flight operation
          is resolved by the runtime's crash semantics *)
  | Retire of { pid : int; at : int }
      (** v2: the process gracefully leaves the membership at step [at]
          ({!Tbwf_sim.Runtime.retire}): its in-flight operation is
          resolved like a crash's, but the departure emits
          [Sink.Retire] — a planned leave, not a failure. The pid is
          excluded from the plan's timely prediction. *)
  | Slow of { pid : int; at : int; gap : int; growth : float }
      (** from [at], the process's scheduling gap starts at [gap] and
          grows by [growth] each visit — a decelerating process, the
          paper's canonical way to lose timeliness forever *)
  | Timely of { pid : int; at : int; period : int }
      (** from [at], the process is scheduled every [period] steps —
          restores timeliness (a per-process GST) *)
  | Flicker of { pid : int; at : int; active : int; sleep : int; growth : float }
      (** from [at], the process alternates bursts of activity with
          growing sleeps — intermittently timely, eventually not *)
  | Abort_ramp of {
      target : target;
      from : int;
      until : int;
      rate0 : float;
      rate1 : float;
    }
      (** over \[[from], [until]), operations on [target] registers abort
          with probability ramping linearly from [rate0] to [rate1],
          drawn from the runtime's object stream — faults below the
          register abstraction, hence unconditional on contention *)
  | Staleness of { from : int; until : int }
      (** over \[[from], [until]), writes into the Ω heartbeat mesh abort:
          heartbeats are lost in flight and readers keep seeing stale
          values. Reads are untouched ([Omega_mesh]-only by construction). *)
  | Partition of { at : int; side : node list }
      (** v2: from [at], the network is split into [side] and everyone
          else; messages crossing the cut are dropped at send time
          (in-flight messages still deliver). Replaces any earlier cut. *)
  | Heal of { at : int }
      (** v2: from [at], no partition is in effect *)
  | Delay_ramp of {
      from : int;
      until : int;
      extra0 : float;
      extra1 : float;
      node : node option;
    }
      (** v2: over \[[from], [until]), extra per-message latency ramping
          linearly from [extra0] to [extra1] steps on links touching
          [node] ([None] = all links). Delay alone never revokes
          timeliness in the final regime — latency stays bounded. *)
  | Drop of {
      from : int;
      until : int;
      rate0 : float;
      rate1 : float;
      node : node option;
    }
      (** v2: over \[[from], [until]), messages on links touching [node]
          ([None] = all links) are lost with probability ramping from
          [rate0] to [rate1], drawn from the object stream. A drop window
          persisting to the horizon with [rate1 > 0] makes its links
          untimely in the final regime. *)
  | Crash_replica of { r : int; at : int }
      (** v2: replica server [r] (pid [n + r]) halts forever at [at] *)
  | Unknown of { line : string }
      (** an atom kind this version does not know, carried verbatim: v2+
          plans from newer writers parse, shrink, and re-serialize without
          silently dropping atoms. Compiles to nothing. *)

type t

val make : ?replicas:int -> n:int -> horizon:int -> atom list -> t
(** Validates every atom against [n], [replicas] (default 0; network
    atoms require [replicas > 0]) and [horizon]; raises
    [Invalid_argument] with the offending atom's complaint. *)

val n : t -> int

val replicas : t -> int
(** Replica count of the message-passing substrate the plan targets;
    0 for a shared-memory plan. *)

val horizon : t -> int
val atoms : t -> atom list
val equal : t -> t -> bool

(** {2 Serialization}

    Header [tbwf-plan v1 n=<n> horizon=<h>], then one [key=value] line per
    atom. Blank lines and [#] comments are ignored on input; floats are
    printed with enough digits ([%.12g]) that
    [of_string (to_string p) = Ok p].

    Plans whose atoms all predate v2 (and with [replicas = 0]) serialize
    with the historical [v1] header, byte-identically to earlier
    releases. A positive replica count or any v2/unknown atom switches
    the header to [tbwf-plan v2 n=<n> horizon=<h> replicas=<m>] (the
    [replicas=] field appears only when positive). [of_string] accepts
    both; under a [v2] header an unrecognized atom kind parses as
    {!Unknown} instead of an error, so future atoms round-trip. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val pp : Format.formatter -> t -> unit

(** {2 Prediction} *)

val predicted_timely : t -> int list
(** Pids expected to be timely in the tail: not crashed, not retired,
    and the last schedule-affecting atom on their timeline (if any) is
    [Timely]. *)

val settle_step : t -> int
(** The step after which no further fault changes the system's regime:
    max over atoms of their onset (point atoms) or end (windowed atoms,
    except a ramp that persists to the horizon, which settles at onset).
    The degradation checker examines the tail from here. *)

val emergent : t -> Tbwf_check.Degradation.emergent option
(** The emergent-timeliness picture on a message-passing substrate
    ([None] when [replicas = 0]): which replicas the plan leaves alive in
    the final regime, and which of them each client reaches over timely
    links — the last [Partition]/[Heal] decides the cut, a [Drop] window
    persisting to the horizon with [rate1 > 0] makes its links untimely,
    and [Delay_ramp] never does. *)

val prediction : t -> Tbwf_check.Degradation.prediction

(** {2 Compilation} *)

val policy : t -> Tbwf_sim.Policy.t
(** The scheduling policy over all [n + replicas] pids: every pid starts
    on a timely base rotation [Every {period = n + replicas + 1; offset =
    pid}] (the spare step per round lets soft-claim patterns run),
    overridden by [Switch_at] chains built from the pid's
    [Slow]/[Timely]/[Flicker] atoms in onset order. Replica server pids
    stay on the base rotation. *)

val install_crashes : t -> Tbwf_sim.Runtime.t -> unit
(** Registers every [Crash] atom via {!Tbwf_sim.Runtime.crash_at}, every
    [Retire] atom via {!Tbwf_sim.Runtime.retire}, and every
    [Crash_replica {r; _}] as pid [n + r] — the runtime must be
    [n + replicas] processes wide when the plan has replica atoms. *)

val net_events : t -> Tbwf_net.Net.event list
(** The plan's network atoms compiled to network events (nodes resolved
    to pids), in atom order, for {!Tbwf_net.Net.config}. Empty for a
    shared-memory plan. *)

val abort_policy :
  t ->
  target:target ->
  base:Tbwf_registers.Abort_policy.t ->
  Tbwf_registers.Abort_policy.t
(** Wraps [base] with the plan's channel-level atoms for [target]:
    [Any [base; Unconditional ramp; ...]]. Ramps draw from the context's
    (object-stream) rng at the interpolated rate; staleness bursts abort
    mesh writes deterministically. Returns [base] unchanged if no atom
    targets [target]. *)

(** {2 Generation and shrinking} *)

val gen :
  ?max_atoms:int -> ?replicas:int -> Tbwf_sim.Rng.t -> n:int -> horizon:int -> t
(** Random plan with 1..[max_atoms] (default 3) atoms, parameters drawn
    from tidy grids (onsets on eighths of the horizon, a few gap/growth/
    rate values) so that shrunk counterexamples stay human-readable. With
    [replicas > 0] (default 0) the pool includes the network atoms and
    replica crashes. *)

val shrink : fails:(t -> bool) -> t -> t
(** Delta-debugs the atom list with {!Tbwf_check.Shrink.ddmin}: returns a
    plan with a 1-minimal subset of atoms on which [fails] still holds
    ([fails t] must hold on entry; the result may equal [t]). *)
