(** Operation-span tracing.

    A {e span} is one shared-object operation, from its invocation step
    to its response step. The runtime pairs each response with its own
    invocation — a task has at most one call in flight — and hands the
    sink the invoke step and whether another operation overlapped the
    call ({!Tbwf_sim.Sink.t}'s [on_respond]), so the tracer pairs nothing
    itself and keeps no open spans. Two tasks of one process with calls
    in flight on one object close their own spans, whatever order they
    respond in.

    The tracer aggregates spans as they close — one latency {!Quantile}
    sketch per layer, abort/retry streaks per process, and contention
    windows. A span is
    contended iff the runtime reports it overlapped. A contention window
    follows the object's in-flight count as the runtime keeps it
    ({!Tbwf_sim.Shared.t}'s [in_flight], handed to {!on_invoke} and
    {!on_respond} by the collector): it opens at an invoke that leaves two
    or more operations in flight and closes at a respond that leaves
    none. Everything is derived from the event stream in event order, so
    a replayed schedule produces an identical aggregate; an invoke and a
    respond each cost O(1) and allocate nothing.

    A tracer attached mid-run closes the calls already in flight with
    their true invoke steps, and its windows follow the runtime's true
    counts: an invoke that finds another call already in flight opens a
    window even if the tracer never saw that call's invoke. A call
    [Runtime.stop] drops reaches no sink, so a window open at the stop
    stays open until a later respond leaves the object with nothing in
    flight. *)

open Tbwf_sim

type t

val create : n:int -> t

val on_invoke : t -> obj_id:int -> in_flight:int -> unit
(** An operation was invoked on [obj_id], leaving [in_flight] operations
    in flight on it (this one included); at two or more, the object's
    contention window opens unless it is open already. *)

val on_respond :
  t -> pid:int -> layer:Sink.layer -> obj_id:int -> in_flight:int ->
  step:int -> invoked:int -> overlapped:bool -> aborted:bool -> unit
(** Closes the span [pid] invoked at step [invoked]: its latency
    [step - invoked] is observed once, into [layer]'s sketch, and it
    counts as contended iff [overlapped]. [in_flight] is what stays in
    flight on [obj_id] without this one; at zero, the object's window
    closes. [aborted] feeds the abort-streak sketch: a process's streak
    closes (and its length is observed) at the first non-aborted
    response. Responds of a [pid] outside 0 … n−1 are ignored. *)

val completed : t -> int
(** Spans closed so far: the sum of the per-layer sketches' counts. *)

val tail_of : t -> Sink.layer -> Quantile.t
(** The layer's completion-time sketch. {!to_json} renders it twice:
    folded into log₂ buckets under ["latency"] and as p50/p99/p999 tails
    under ["tails"]. *)

val merge : t -> t -> t
(** Fresh tracer holding both inputs' closed-span aggregates (latency and
    streak sketches summed bucket-wise, totals added). In-flight state —
    open windows, running abort streaks — is dropped: merge is meant for
    finished, independent runs. Raises [Invalid_argument] if the process
    counts differ. *)

val to_json : t -> Json.t
