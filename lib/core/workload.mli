(** Client workload drivers: spawn per-process client tasks that issue
    operations through a shared-object front-end and count completions. *)

type stats = {
  issued : int array;  (** ops started, per pid *)
  completed : int array;  (** ops finished, per pid *)
  last_response : Tbwf_sim.Value.t option array;
}

val fresh_stats : n:int -> stats

val issue : stats -> pid:int -> unit
(** Count one operation started by [pid]. *)

val complete : Tbwf_sim.Runtime.t -> stats -> pid:int -> Tbwf_sim.Value.t -> unit
(** Count one operation of [pid] finished with [response], and emit
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
  (** Raises [Invalid_argument] unless [mean_gap > 0], [keys >= 1] and
      [zipf >= 0]. {!spawn_clients} and {!client_body} call it. *)

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
