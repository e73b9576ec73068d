(** The step simulator.

    A runtime hosts [n] processes (pids 0..n-1). Each process runs one or
    more {e tasks} — coroutines implemented with OCaml effects — modelling
    the paper's view that leader-election code, activity-monitor code and
    application code all execute "at" the process and share its local state.

    One {e step} schedules one task of one process and runs it from its last
    suspension point to its next effect; a task parked on a condition
    ({!park}) tests the condition instead, and runs on only if it holds.
    Shared-object operations span two
    steps: the step that performs the invocation, and the later step (the
    next time the task is scheduled) at which the operation takes effect and
    its result is delivered. Two operations on the same object are
    {e concurrent} iff their invoke/response windows overlap; the runtime
    tracks this and reports it to the object (see {!Shared.ctx}), which is
    what drives abortable-register semantics.

    Runs are deterministic: a run is a pure function of (seed, policy,
    spawned code). *)

type t

val create : ?seed:int64 -> n:int -> unit -> t
(** [create ~n ()] makes a runtime with processes 0..n-1, no tasks and
    the {!Sink.nil} sink. It keeps no record of its run: every observer,
    the run trace included, is a sink installed with {!set_sink}. *)

val n : t -> int
(** Membership size: pids are 0..n-1, counting crashed and retired
    processes. *)

val obj_rng : t -> Rng.t
(** The object stream, seeded independently of the scheduling stream
    (consumed by policies, via {!run}) from the same seed:
    every random decision made inside a shared object's [respond] (abort
    draws, write effects) comes from here, in response order. Keeping the
    two streams separate is what makes a schedule replay
    ({!Policy.replay}) byte-identical to the original run:
    replay consumes no scheduling randomness, and object draws depend only
    on the response order, which the schedule fixes. *)

val now : t -> int
(** Number of steps executed so far (also the index of the next step). *)

val running : t -> int
(** Pid of the task whose step is executing: the same answer as {!self},
    read from the runtime instead of performing an effect. Meaningful
    only inside a task body; elsewhere it is the pid of the last step run
    (or [-1] before the first). *)

val register_object :
  t -> name:string -> respond:(Shared.ctx -> Value.t) -> Shared.t
(** Create a shared object with a fresh id. [respond] is called at each
    operation's response step (and once, with the final context, if the
    invoking process crashes mid-operation). The runtime keeps three
    counters on the object ({!Shared.t}'s [events], [in_flight] and
    [invokes]), from which it answers each context's [overlapped] and
    [step_contended]. *)

val spawn :
  ?layer:Sink.layer -> t -> pid:int -> name:string -> (unit -> unit) -> unit
(** Add a task to process [pid]. Tasks added to the same process share its
    steps round-robin. May be called before or during a run. [layer] tags
    every step and operation the task performs for telemetry attribution
    (default {!Sink.Other}); it has no behavioural effect. *)

(** {2 Machine tasks}

    A {e machine} is a task body compiled down to an effect-free step
    function: instead of suspending with effects, it runs to its next
    suspension point and {e returns} how it suspended. The runtime
    interprets the action — no continuation capture, no handler dispatch,
    no per-step closure. Every task of the paper's stacks is a machine on
    both substrates: Figure 2's activity monitors, both Ω∆
    implementations (Figures 3 and 6), the naive booster's election,
    Figure 7's clients — the closed loop of campaign and soak cells and
    the open loop of world cells, one machine for both, whose pc says
    where in an operation a client is — and the message-passing replica
    servers. So no step of a campaign, soak or world cell runs a fiber. A
    machine steps through a register operation that takes many calls (a
    quorum round) by the register's port ([Tbwf_registers.Reg.Port]).
    Fibers ({!spawn}, {!spawn_at}) remain for caller-supplied bodies.
    Machine tasks and fiber
    tasks share every other bit of runtime bookkeeping (sink events,
    pending-op tracking, crash/stop semantics), so a machine that mirrors
    a task body's effect sequence produces a byte-identical run. *)

type machine_action =
  | M_yield  (** the task's [yield]: give up the step *)
  | M_call of Shared.t * Value.t
      (** the task's [call obj op]: invoke now, the result arrives as the
          argument of the machine's next invocation *)
  | M_halt  (** the task body returned *)

type machine = Value.t -> machine_action
(** One invocation = one step. The argument is the result of the call the
    machine last suspended on, or {!Value.Unit} after a yield and at the
    machine's first step. *)

val spawn_machine :
  ?layer:Sink.layer -> t -> pid:int -> name:string -> machine -> unit
(** Like {!spawn}, for a compiled task body. The task is not marked
    running while its step function runs, so that function must not
    {!retire} or {!stop} its own process (nothing in the library does;
    crashes and scheduled retirements apply between steps). *)

type task_form = Fiber | Machine

val task_forms : t -> pid:int -> (string * task_form) list
(** The tasks spawned on [pid], in spawn order: each one's name and
    whether {!spawn} ([Fiber]) or {!spawn_machine} ([Machine]) added it.
    For tests and diagnostics; it does not affect the run. *)

val crash_at : t -> pid:int -> step:int -> unit
(** Schedule [pid] to crash just before step [step] executes (a [step]
    that has already passed means the next step). A crashed process never
    takes another step; its in-flight operation (if any) is resolved at
    crash time so the object's state stays well defined. Crashes share
    the deferred-event queue of the membership events below. *)

val crashed : t -> pid:int -> bool

(** {2 Dynamic membership}

    The process table is fixed at {!create}, but processes can join and
    leave mid-run: a dormant pid joins when its first task is activated
    ({!spawn_at}, {!spawn_machine_at}), and a process leaves when it retires or crashes.
    Membership changes are deterministic simulator events, keyed by step
    like everything else: a run with churn is still a pure function of
    (seed, policy, spawned code, scheduled events), so it replays
    byte-identically under {!Policy.replay}.

    Deferred activations ({!spawn_at}, {!spawn_machine_at}), retirements
    and crashes
    ({!crash_at}) wait in one queue and apply just before their step
    executes. Events due at the same step apply in a fixed order:
    activations and retirements in the order they were scheduled, then
    crashes in the reverse of the order they were scheduled. So a crash
    and a retirement of one process at the same step leave it crashed,
    and an activation on a process that crashed or retired first is
    dropped. *)

val spawn_at :
  ?layer:Sink.layer -> t -> pid:int -> at:int -> name:string ->
  (unit -> unit) -> unit
(** Deferred {!spawn}: add a task to existing process [pid] that becomes
    runnable at step [at] — the join primitive for a cell built at
    capacity, where a dormant member starts doing work mid-run. An [at]
    that is not after {!now} activates the task at once. Either way, an
    activation on a process that has crashed or retired by then is
    dropped. *)

val spawn_machine_at :
  ?layer:Sink.layer -> t -> pid:int -> at:int -> name:string -> machine ->
  unit
(** Deferred {!spawn_machine}, through the same activation path as
    {!spawn_at}: how a world cell's joiner starts its client. *)

val retire : ?at:int -> t -> pid:int -> unit
(** Gracefully remove [pid] from the membership at step [at] (default
    now). Retirement resolves the process's in-flight operation exactly
    as a crash does — the object's state stays well defined — and then
    unwinds its tasks and drops their storage (compaction), but emits
    {!Sink.Retire} rather than {!Sink.Crash}: the departure is a planned
    leave, not a failure, and checkers treat it accordingly. Retiring a
    crashed or already-retired process is a no-op. *)

val retired : t -> pid:int -> bool

val run : t -> policy:Policy.t -> steps:int -> unit
(** Execute up to [steps] further steps. Stops early only if no process has
    a runnable task. May be called repeatedly (e.g. with different policies)
    to build phased schedules.

    Each step asks the policy's {!Policy.next} for a pid; its [-1] (nobody
    willing) becomes an idle step. The runnable array the policy is handed
    is the runtime's cached set: the same array from step to step until
    membership changes, when a fresh one replaces it (never mutated in
    place).

    Cost per step: the task search and the effect handler allocate
    nothing, and the pick nothing beyond the float a soft draw of
    {!Policy.of_patterns} boxes; the task search wraps its round-robin
    cursor without dividing. A yield step allocates its continuation
    and the [Suspended_local] box around it (4 words in all on OCaml
    5.1); a call step additionally allocates the performed effect, the
    call's pending record and the {!Shared.ctx} of its response (18 words
    more). A step of a parked task ({!park}) whose condition is false
    allocates nothing of its own — only what the condition does — and
    neither resumes nor suspends a fiber. *)

(** {2 Step-replay hooks}

    Single-step drivers for the schedule explorer ({!Tbwf_check.Explore}):
    instead of delegating the whole run to a policy, a caller can inspect
    which processes are runnable and execute exactly one chosen step,
    interleaving its own bookkeeping (invariant checks, access-footprint
    capture) between steps. Both entry points apply due events first, so
    they compose with {!crash_at}, {!retire} and deferred activations
    exactly as {!run} does. *)

val runnable_pids : t -> int array
(** Pids with at least one runnable task, ascending — the choices a policy
    would be offered at the next step. Applies due events first. *)

val step : t -> pid:int -> unit
(** Execute one step of [pid]'s next runnable task (round-robin within the
    process, as in {!run}) and report it to the sink. Raises
    [Invalid_argument] if [pid] is not currently runnable. *)

val stop : t -> unit
(** Tear down all suspended tasks by resuming them with an exception, with
    the teardown a crash uses except that in-flight operations are dropped
    rather than resolved. After [stop] the runtime can still be inspected
    but not run. *)

(** {2 Observers}

    A runtime carries one sink, {!Sink.nil} by default, and it is the only
    way to observe a run. With the nil sink installed every
    instrumentation site reduces to a boolean test, so the unobserved path
    stays fast; attaching a real sink streams steps, operation invocations
    and responses (each with its object and operation), and library-level
    signals to it. The run trace's recorder, the telemetry collector
    ([Tbwf_telemetry.Collector]) and the online checkers are such sinks,
    composed with {!Sink.tee}. Each response carries its call's own
    invoke step and [overlapped] flag: a task has one call in flight, so
    the runtime pairs it exactly and a sink need not. The stream is a pure
    function of (seed, policy, spawned code), and the run does not depend
    on which sinks watch it. *)

val set_sink : t -> Sink.t -> unit
(** Install [sink] as the runtime's sink, replacing the one installed.
    To add an observer, tee it with {!sink}. *)

val sink : t -> Sink.t
(** The installed sink. *)

val telemetry_active : t -> bool
(** True iff the installed sink reads signals: its [on_signal] is not
    {!Sink.nil}'s, as it is for a trace recorder alone. Instrumented
    libraries guard on this before allocating signal payloads. *)

val signal : t -> pid:int -> Sink.signal -> unit
(** Emit a structured signal on behalf of [pid] at the current step. No-op
    when telemetry is inactive. *)

(** {2 Inside-task API}

    These may only be called from code running inside a task spawned on this
    runtime. *)

val yield : unit -> unit
(** Give up the current step; the task resumes the next time it is
    scheduled. One [yield] models one local step of the paper's model. *)

val call : Shared.t -> Value.t -> Value.t
(** Perform an operation on a shared object: invocation at the current
    step, response at the task's next scheduled step. *)

val park : (unit -> bool) -> unit
(** [park cond] ends the current step and parks the task: each later step
    the task is scheduled for tests [cond] once, and the first one that
    finds it true resumes the task, which carries on within that step.
    [cond] is not tested at the step that parks. A step of a parked task
    is still one local step of the paper's model — it is reported to the
    sink like any other, and a task's steps
    count exactly as they would for [yield (); await cond] — only its
    fiber is not resumed while [cond] is false.

    [cond] runs outside the task's fiber, at the runtime's level: it must
    not perform effects ([yield], [call], {!self}, [park]); read {!running}
    for the pid. If it raises, the exception names the task on stderr and
    propagates out of {!run} or {!step}, as a task body's would. *)

val await : (unit -> bool) -> unit
(** [await cond] = [if not (cond ()) then park cond]: busy-wait with one
    test per step until [cond] holds — the paper's [while ... do skip],
    exactly as [while not (cond ()) do yield () done]. A condition that
    already holds returns at once without ending the step. *)

val self : unit -> int
(** Pid of the process executing the current task. *)

exception Simulation_over
(** Raised inside suspended tasks by {!stop} to unwind them. Task code that
    installs [try ... with] around loops must re-raise it. *)
