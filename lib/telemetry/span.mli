(** Operation-span tracing.

    The runtime's invoke/respond events pair up into {e spans}: one span
    per shared-object operation, from its invocation step to its
    response step. The tracer aggregates spans as they close — one
    latency {!Quantile} sketch per layer, abort/retry streaks per process, and contention
    windows (maximal periods during which an object had two or more
    operations in flight). Everything is derived from the event stream
    in event order, so a replayed schedule produces an identical
    aggregate.

    A span is contended iff, at its invoke or while it was open, an
    invoke left two or more spans in flight on its object. Open spans
    live on flat per-pid int stacks, and each object keeps an epoch that
    advances at every such contended invoke; a span records the epoch
    it saw. An invoke costs O(1), a respond a scan of its pid's open
    spans (usually one), and neither allocates. At most 256
    spans stay open per pid: beyond that the oldest is dropped, and it
    still counts as in flight on its object. *)

open Tbwf_sim

type t

val create : n:int -> t

val on_invoke : t -> pid:int -> obj_id:int -> step:int -> unit

val on_respond :
  t -> pid:int -> layer:Sink.layer -> obj_id:int -> step:int ->
  aborted:bool -> unit
(** Closes [pid]'s newest open span on [obj_id]; a respond whose invoke
    was never seen (sink attached mid-operation) is silently ignored.
    [aborted] feeds the abort-streak sketch: a process's streak closes
    (and its length is observed) at the first non-aborted response. Each
    closed span's latency is observed once, into its layer's sketch. *)

val completed : t -> int

val tail_of : t -> Sink.layer -> Quantile.t
(** The layer's completion-time sketch. {!to_json} renders it twice:
    folded into log₂ buckets under ["latency"] and as p50/p99/p999 tails
    under ["tails"]. *)

val merge : t -> t -> t
(** Fresh tracer holding both inputs' closed-span aggregates (latency and
    streak sketches summed bucket-wise, totals added). In-flight state
    — open spans, running abort streaks — is dropped: merge is meant for
    finished, independent runs. Raises [Invalid_argument] if the process
    counts differ. *)

val to_json : t -> Json.t
