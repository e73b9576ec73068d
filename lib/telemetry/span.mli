(** Operation-span tracing.

    A {e span} is one shared-object operation, from its invocation step
    to its response step. The runtime pairs each response with its own
    invocation — a task has at most one call in flight — and hands the
    sink the invoke step and whether another operation overlapped the
    call ({!Tbwf_sim.Sink.t}'s [on_respond]), so the tracer pairs nothing
    itself: it keeps no open spans, only each object's in-flight count.
    Two tasks of one process with calls in flight on one object close
    their own spans, whatever order they respond in.

    The tracer aggregates spans as they close — one latency {!Quantile}
    sketch per layer, abort/retry streaks per process, and contention
    windows (each runs from the moment a second operation is in flight
    on an object until none is). A span is contended iff the runtime
    reports it overlapped. Everything is derived from the event stream
    in event order, so a replayed schedule produces an identical
    aggregate; an invoke and a respond each cost O(1) and allocate
    nothing. A tracer attached mid-run closes the calls already in
    flight with their true invoke steps. *)

open Tbwf_sim

type t

val create : n:int -> t

val on_invoke : t -> obj_id:int -> unit
(** One more operation in flight on [obj_id]; the second one opens a
    contention window. *)

val on_respond :
  t -> pid:int -> layer:Sink.layer -> obj_id:int -> step:int ->
  invoked:int -> overlapped:bool -> aborted:bool -> unit
(** Closes the span [pid] invoked at step [invoked]: its latency
    [step - invoked] is observed once, into [layer]'s sketch, and it
    counts as contended iff [overlapped]. [obj_id]'s window closes when
    its last in-flight operation responds. [aborted] feeds the
    abort-streak sketch: a process's streak closes (and its length is
    observed) at the first non-aborted response. *)

val completed : t -> int
(** Spans closed so far: the sum of the per-layer sketches' counts. *)

val tail_of : t -> Sink.layer -> Quantile.t
(** The layer's completion-time sketch. {!to_json} renders it twice:
    folded into log₂ buckets under ["latency"] and as p50/p99/p999 tails
    under ["tails"]. *)

val merge : t -> t -> t
(** Fresh tracer holding both inputs' closed-span aggregates (latency and
    streak sketches summed bucket-wise, totals added). In-flight state
    — in-flight counts, running abort streaks — is dropped: merge is meant for
    finished, independent runs. Raises [Invalid_argument] if the process
    counts differ. *)

val to_json : t -> Json.t
