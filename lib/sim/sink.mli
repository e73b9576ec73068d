(** Telemetry sink: the runtime's hook surface for observers.

    The runtime (and the libraries built on it) emit structured events
    through a sink record. The default sink is {!nil}, whose callbacks
    are no-ops and whose [active] flag is false; every instrumentation
    site guards on [active] {e before} building the event's payload
    (a signal site on [Runtime.telemetry_active], which also skips a
    sink whose [on_signal] is {!nil}'s), so with the nil sink installed
    the only cost on the hot path is one load and branch. Attaching a real sink turns the same sites
    into a deterministic event stream: events are keyed by the
    simulator's step counter, never by wall-clock, so the same (seed,
    policy) produces a byte-identical stream.

    Every observer of a run is a sink on this one path: the run trace
    ({!Trace.recorder}), the telemetry collector (lib/telemetry) and the
    online checkers (lib/check). {!tee} composes them. *)

(** Which part of the stack a task belongs to (set via
    [Runtime.spawn ~layer]); step attribution groups by it. *)
type layer = App | Omega | Monitor | Other

val layer_name : layer -> string
val layer_index : layer -> int
val layers : layer list
val n_layers : int

(** Structured events from the libraries above the step loop. Payloads
    are allocated only when a sink is active (call sites guard). *)
type signal =
  | Abort_decision
      (** an abortable register chose to abort the acting process's
          current operation; constant, so signalling one allocates
          nothing *)
  | Leader_view of { leader : int option }
      (** the acting process's Ω∆ view changed ([None] = no leader) *)
  | Suspicion_flip of { watched : int; suspected : bool }
      (** activity monitor A(p,q) at the acting process p flipped its
          estimate of [watched] = q *)
  | Crash of { pid : int }  (** the runtime crashed process [pid] *)
  | Retire of { pid : int }
      (** the runtime gracefully retired process [pid]: it left the
          membership with any in-flight operation resolved first, so the
          departure is not a failure — checkers and telemetry count it
          apart from {!Crash} *)
  | Op_complete
      (** the acting process completed one workload-level operation (a
          full [Tbwf.invoke] round trip, not an individual register call
          — emitted by [Workload], so it counts exactly what
          [Workload.stats.completed] counts) *)
  | Message of { src : int; dst : int; latency : int; dropped : bool }
      (** the simulated network accepted a message from [src] to [dst];
          [latency] is the assigned delivery delay in steps, and
          [dropped] is true when the message was cut by a partition or a
          loss draw (then [latency] is the would-have-been delay) *)

type t = {
  active : bool;
  on_step : step:int -> pid:int -> layer:layer -> unit;
      (** one scheduled step of [pid]'s task in [layer] ([pid] = -1 for
          an idle step); arrives before any other event of that step *)
  on_invoke : step:int -> pid:int -> obj:Shared.t -> op:Value.t -> unit;
      (** [pid] invoked operation [op] on object [obj]. Both are the
          values the task called with, handed over as they are: the event
          allocates nothing, and [obj.name] is the same string on every
          event of one object. *)
  on_respond :
    step:int ->
    pid:int ->
    layer:layer ->
    obj:Shared.t ->
    op:Value.t ->
    invoked:int ->
    overlapped:bool ->
    result:Value.t ->
    unit;
      (** operation [op] on [obj] took effect with [result]. The runtime
          pairs it with its own invocation: [invoked] is that invoke's
          step, and [overlapped] is the flag the object was answered with
          ({!Shared.ctx}), true iff another operation on [obj] was in
          flight at some point of this one's window. A crash or a
          retirement resolves an in-flight operation through this event
          too; {!Runtime.stop} drops it without one. *)
  on_signal : step:int -> pid:int -> signal -> unit;
}

val nil : t
(** The inactive no-op sink; installed by default. *)

val tee : t -> t -> t
(** [tee a b] forwards every event to [a] then [b]; active iff either
    side is. Lets a collector and an online checker observe one run.
    Where one side's callback is {!nil}'s, the tee's callback {e is} the
    other side's, so an event only one side reads costs no extra call. *)
