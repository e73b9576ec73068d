(** Deterministic simulated message-passing network.

    The network is a library on top of the step simulator: every node
    (process) owns one {e inbox} shared object, a [send] is an operation on
    the destination's inbox and a [poll] is an operation on the sender's
    own inbox. Because message admission, loss, latency and delivery all
    happen inside shared-object [respond] functions, they are ordered by
    response steps and draw randomness from the runtime's {e object}
    stream — so a run over the network is a pure function of (seed,
    policy, config), replays byte-identically under [Policy.replay], and
    is oblivious to how many domains fan independent runs out.

    {2 Fault model}

    The config carries a timeline of network events:

    - {e partitions} cut all links between a pid set and its complement;
      a later heal restores them. A cut link drops messages {e at send
      time}; messages already in flight when a partition starts still
      deliver (they left the sender before the cut).
    - {e drop windows} lose each message crossing a matching link with a
      probability interpolated linearly across the window.
    - {e delay windows} add interpolated extra latency to matching links
      without losing anything — the graceful-degradation regime: links
      stay timely in the eventual sense, just slower.

    Baseline latency is [base_latency] plus a uniform draw in
    [0..jitter], so message reordering arises naturally.

    {2 Determinism contract}

    Per accepted [send] the inbox draws, in this order: the jitter draw
    (iff [jitter > 0]) and the loss draw (iff the combined drop rate at
    that step is positive). Both conditions are pure functions of the
    config and the response step, so the object stream's consumption —
    and hence every later draw in the run — depends only on the response
    order, which a replayed schedule fixes. *)

(** One timeline entry. Steps are runtime step numbers. *)
type event =
  | Ev_partition of { at : int; side : int list }
      (** from step [at], cut every link between [side] and its
          complement (pids, clients and replicas alike) *)
  | Ev_heal of { at : int }  (** from step [at], no partition *)
  | Ev_delay of {
      from_ : int;
      until : int;
      extra0 : float;
      extra1 : float;
      node : int option;
          (** [None] = all links; [Some p] = links touching pid [p] *)
    }
      (** extra latency interpolated [extra0 → extra1] over
          [[from_, until)] *)
  | Ev_drop of {
      from_ : int;
      until : int;
      rate0 : float;
      rate1 : float;
      node : int option;
    }
      (** loss probability interpolated [rate0 → rate1] over
          [[from_, until)] *)

type config = {
  replicas : int;  (** server replicas (pids n..n+replicas-1) *)
  base_latency : int;  (** minimum one-way delivery delay, in steps *)
  jitter : int;  (** uniform extra delay in [0..jitter] *)
  retransmit_every : int;
      (** client retransmit cadence, in polls, used by [Mp_reg] *)
  events : event list;
}

val default_config : config
(** 3 replicas, base latency 3, jitter 2, retransmit every 12 polls, no
    events. *)

val majority : config -> int
(** [replicas/2 + 1] — the quorum size of the register emulations. *)

val validate_config : config -> (unit, string) result

(** {2 Pure timeline queries}

    Used by the emergent-timeliness predictor as well as by the transport
    itself; events are applied in time order ([at] / window start),
    stably, so same-step events resolve in list order. *)

val cut_at : config -> at:int -> int -> int -> bool
(** [cut_at config ~at a b] — is the link between pids [a] and [b] cut by
    the partition in force at step [at]? *)

val drop_rate_at : config -> at:int -> int -> int -> float
(** Combined loss probability on a link at a step (independent-draw
    combination of every active matching drop window, clamped to
    [[0,1]]). *)

val extra_delay_at : config -> at:int -> int -> int -> int
(** Summed interpolated extra latency on a link at a step, rounded. *)

(** {2 Transport} *)

(** One destination's queue of admitted, not yet delivered messages,
    kept sorted by (delivery step, send order). Exposed so tests can run
    it against a reference model; the transport below is its only other
    user. *)
module Inbox : sig
  type t

  val create : unit -> t

  val post :
    t -> delivery:int -> seq:int -> src:int -> key:int -> Tbwf_sim.Value.t -> unit
  (** Queue a message due at step [delivery]. [seq] is its global send
      order: it must exceed the [seq] of every message posted before, to
      any queue. The message goes in from the tail, behind every message
      due no later than it. *)

  val poll : t -> at:int -> key:int -> Tbwf_sim.Value.t
  (** Remove the messages due at step [at] (delivery [<= at]) whose key
      is at most [key] — all due messages for {!catch_all} — and return,
      as a [Value.List] of [Pair (Int src, Pair (Int key, payload))] in
      queue order, those whose key equals [key] (all of them for
      {!catch_all}). A poll with nothing due answers after one
      comparison, with a shared empty list. *)

  val pending : t -> (int * int * int * int * Tbwf_sim.Value.t) list
  (** The queue's messages as [(delivery, seq, src, key, payload)], in
      queue order. *)
end

type t

val create : Tbwf_sim.Runtime.t -> config:config -> t
(** Register one inbox object per pid ("inbox[0]", "inbox[1]", ...), in
    pid order. Call once, before any other objects whose creation order
    matters have been registered, so object ids stay stable.

    An inbox's operations are a post, [Pair (Int key, payload)], and a
    poll, [Int key]; that is how they appear in the trace. An inbox's
    answer reads only the context's [pid], [op], [rng] and
    [respond_step], never which operations overlapped it. *)

val config : t -> config

val replica_pid : t -> int -> int
(** [replica_pid t r = Runtime.n rt - config.replicas + r]: client pids
    come first, replica [r] after them. *)

val fresh_key : t -> pid:int -> int
(** Next demux key for [pid]'s operations — monotonic per pid, local
    (consumes no steps and no randomness). *)

val catch_all : int
(** The poll key ([-1]) that matches every message — what replica server
    loops poll with. *)

(** {2 Inside-task API} *)

val send : t -> dst:int -> key:int -> Tbwf_sim.Value.t -> unit
(** Post [payload] to [dst]'s inbox (one shared-object call, two steps).
    Loss, latency and partitions are decided at the call's response step.
    Replies echo the request's [key]. *)

val poll : t -> key:int -> (int -> int -> Tbwf_sim.Value.t -> unit) -> unit
(** [poll t ~key f] delivers the caller's due messages, calling
    [f src key payload] on each after the call returns, in delivery
    order, ties in send order. With a non-negative [key], only messages
    for exactly that key are delivered, and due messages for {e older}
    keys are discarded — replies that straggled in after their operation
    completed. With {!catch_all}, everything due is delivered. One
    shared-object call, two steps. *)

(** {2 Step-machine access}

    A step machine ({!Tbwf_sim.Runtime.spawn_machine}) makes the calls of
    {!send} and {!poll} itself: [(inbox t dst, post_op ~key payload)] and
    [(inbox t self, poll_op ~key)]. A poll answers as {!Inbox.poll}
    does. *)

val inbox : t -> int -> Tbwf_sim.Shared.t
val post_op : key:int -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t
val poll_op : key:int -> Tbwf_sim.Value.t
