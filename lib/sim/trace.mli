(** Run traces.

    A trace records which process took each step, plus a separate compact
    log of shared-object operations (invocations and responses). Analyses
    such as empirical timeliness classification (Definitions 1–2 of the
    paper) and the write-efficiency experiment read the trace after a run.

    A run is traced by attaching a {!recorder}: the trace is one more
    {!Sink.t} on the runtime's event stream, next to the telemetry
    collector and the online checkers, and a run with no recorder keeps
    no trace at all. *)

type op_event = {
  step : int;          (** step at which the event happened *)
  pid : int;
  obj_id : int;
  obj_name : string;
  op : Value.t;
  phase : [ `Invoke | `Respond of Value.t ];
      (** [`Respond r] carries the result delivered to the caller *)
}

type t

val create : unit -> t
(** An empty trace. It records nothing until a {!recorder} over it is
    installed on a runtime (or events are appended by hand). *)

val recorder : t -> Sink.t
(** [recorder t] is the sink that appends every step and every operation
    event of a run to [t]: install it with [Runtime.set_sink], or
    {!Sink.tee} it with other observers. Step [i] of the trace is runtime
    step [i], so the recorder must see the run from its first step: it
    raises [Invalid_argument] on a step whose number is not the trace's
    next index (a recorder attached after step 0 fails at its first
    step). A recorded event allocates nothing beyond the amortized
    growth of the trace's arrays. Signals are not recorded. *)

val record_step : t -> pid:int -> unit
(** Append one scheduler step taken by [pid]. Steps are numbered from 0 in
    the order recorded. For hand-built traces; a run is recorded by
    {!recorder}. *)

val record_op : t -> op_event -> unit

val length : t -> int
(** Number of steps recorded so far. *)

val pid_at : t -> int -> int
(** [pid_at t i] is the process that took step [i]. *)

val steps_of : t -> pid:int -> int list
(** Ascending list of step indices taken by [pid]. *)

val schedule : t -> int list
(** The pid of every step recorded so far, in order (-1 for idle steps) —
    the run's schedule, ready for {!Schedule.make}. *)

val ops : t -> op_event list
(** All operation events, in chronological order. *)

val n_ops : t -> int
(** Number of operation events recorded so far. Use as a mark for
    {!ops_from} to observe the events of a single step. *)

val ops_from : t -> int -> op_event list
(** [ops_from t mark] is the chronological list of operation events
    recorded after the first [mark] ones — i.e. since [n_ops t] returned
    [mark]. The schedule explorer uses this to read off the shared-object
    access footprint of the step it just executed. *)

val iter_ops : t -> (op_event -> unit) -> unit

val fingerprint : t -> string
(** A canonical rendering of the whole trace — every scheduler step and
    every operation event, operands and results included. Two runs are
    byte-identical iff their fingerprints are equal, which is how
    replay determinism (same seed, same plan, same schedule ⇒ same run)
    is asserted without diffing structures field by field. *)

val writes_in_window : t -> obj_prefix:string -> from_step:int -> to_step:int -> (int, int) Hashtbl.t
(** Count successful shared-register write responses per pid in the given
    step window, restricted to objects whose name starts with [obj_prefix].
    Aborted writes (result ⊥) are not counted. *)
