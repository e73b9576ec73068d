(** Client workload drivers: spawn per-process client tasks that issue
    operations through a shared-object front-end and count completions. *)

type stats = {
  issued : int array;  (** ops started, per pid *)
  completed : int array;  (** ops finished, per pid *)
}

val fresh_stats : n:int -> stats

val issue : stats -> pid:int -> unit
(** Count one operation started by [pid]. *)

val complete : Tbwf_sim.Runtime.t -> stats -> pid:int -> unit
(** Count one operation of [pid] finished, and emit
    [Sink.Op_complete] for it when telemetry is active: the one completion
    routine of every client, fiber or machine. *)

val spawn_clients :
  Tbwf_sim.Runtime.t ->
  pids:int list ->
  stats:stats ->
  invoke:(Tbwf_sim.Value.t -> Tbwf_sim.Value.t) ->
  next_op:(pid:int -> k:int -> Tbwf_sim.Value.t option) ->
  unit
(** Spawn one client task per pid. Client [p] repeatedly asks
    [next_op ~pid:p ~k] for its k-th operation (k starts at 0) and runs it
    through [invoke], updating [stats]; it stops when [next_op] returns
    [None]. *)

val forever : Tbwf_sim.Value.t -> pid:int -> k:int -> Tbwf_sim.Value.t option
(** An endless stream of the same operation. *)

val n_times : int -> Tbwf_sim.Value.t -> pid:int -> k:int -> Tbwf_sim.Value.t option
(** The same operation, [n] times, then stop. *)

(** {2 The open-loop generator}

    The closed loop above issues the next operation when the previous
    one completes, so the offered load adapts to the system's pace and a
    degrading system just looks politely slower. Open-loop traffic
    decouples the two: each client draws a deterministic Poisson arrival
    schedule (exponential inter-arrival gaps) and a Zipf-popular key per
    arrival from a private stream derived statelessly from (seed, pid) —
    {!Tbwf_sim.Rng.task_seed} — and issues each operation no earlier
    than its arrival step. A client that falls behind issues the
    backlogged operation immediately, so degradation shows up as
    queueing. Completions still update [stats] and emit
    [Sink.Op_complete], so every online checker works unchanged. *)

module Open_loop : sig
  type profile = {
    mean_gap : float;  (** mean inter-arrival gap, in steps (> 0) *)
    keys : int;  (** Zipf key universe size (>= 1) *)
    zipf : float;  (** Zipf exponent; 0 is uniform popularity *)
  }

  val default : profile
  (** 40-step mean gaps over 64 keys at exponent 1.1. *)

  val validate : profile -> unit
  (** Raises [Invalid_argument] unless [mean_gap] is finite and [> 0],
      [keys >= 1] and [zipf] is finite and [>= 0] (NaN is neither).
      {!traffic} calls it. *)

  type traffic
  (** A validated profile with its Zipf CDF built: what every client of
      a cell shares, built once per cell. *)

  val traffic : profile -> traffic
  (** {!validate}s the profile and builds its Zipf CDF. *)

  (** {3 The arrival clock}

      One client's arrivals, as the transitions both client forms step
      through: the fiber below ({!spawn_clients}, {!client_body}) and
      Figure 7's client machine over an {!Open} source
      ([Tbwf.client_machine]). The random draws keep one order: the gap
      to the next arrival is drawn at the client's first {!poll} (its
      first step) and at the first poll after each {!arrive} (the step
      its operation completes); the key is drawn at the arrival step, by
      {!arrive}. *)

  type arrivals

  val arrivals :
    traffic ->
    seed:int64 ->
    pid:int ->
    until:int ->
    op_of_key:(pid:int -> k:int -> key:int -> Tbwf_sim.Value.t) ->
    arrivals
  (** Client [pid]'s clock, fresh: its private stream is
      {!Tbwf_sim.Rng.task_seed}[ ~master:seed pid], and generation stops
      at the first arrival at or past step [until]. *)

  type status =
    | Arrived  (** the next arrival is due: {!arrive} takes it *)
    | Waiting  (** the next arrival is after [now] *)
    | Exhausted  (** the next arrival is at or past [until] *)

  val poll : arrivals -> now:int -> status
  (** The clock at step [now], drawing the pending gap first. Allocates
      nothing while the client waits. *)

  val arrive : arrivals -> k:int -> Tbwf_sim.Value.t
  (** Take the arrival {!poll} found due: draw its key and return the
      client's [k]-th operation, [op_of_key ~pid ~k ~key]. The caller
      counts it with {!issue}. *)

  (** {3 The fiber form}

      Kept for callers that supply their own [invoke]. *)

  val spawn_clients :
    Tbwf_sim.Runtime.t ->
    pids:int list ->
    stats:stats ->
    invoke:(Tbwf_sim.Value.t -> Tbwf_sim.Value.t) ->
    profile:profile ->
    seed:int64 ->
    until:int ->
    op_of_key:(pid:int -> k:int -> key:int -> Tbwf_sim.Value.t) ->
    unit
  (** Spawn one open-loop client per pid (layer [App], like the closed
      loop). Client [p]'s k-th operation is [op_of_key ~pid:p ~k ~key]
      for its k-th popularity draw; generation stops at the first
      arrival at or past step [until]. *)

  val client_body :
    Tbwf_sim.Runtime.t ->
    pid:int ->
    stats:stats ->
    invoke:(Tbwf_sim.Value.t -> Tbwf_sim.Value.t) ->
    profile:profile ->
    seed:int64 ->
    until:int ->
    op_of_key:(pid:int -> k:int -> key:int -> Tbwf_sim.Value.t) ->
    unit ->
    unit
  (** One client's task body, unspawned — for deferred activation via
      {!Tbwf_sim.Runtime.spawn_at} (a member that joins mid-run). The
      arrival clock starts at the body's first scheduled step, so a
      joiner's schedule begins at its join, not at step 0. *)
end

(** {2 Where a client's operations come from} *)

type source =
  | Closed of (pid:int -> k:int -> Tbwf_sim.Value.t option)
      (** the closed loop: the next operation is fetched as soon as the
          previous one completes, [None] ends the client *)
  | Open of Open_loop.arrivals
      (** the open loop: the next operation is fetched at its arrival *)
