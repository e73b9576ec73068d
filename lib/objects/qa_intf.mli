(** The query-abortable object interface T_QA (paper §1.2 footnote 3 and
    §7, after reference [2]).

    An object of type T_QA behaves like one of type T except that:
    - any operation executed concurrently with another may {e abort},
      returning ⊥ ({!Tbwf_sim.Value.Abort}), with or without taking effect;
    - an extra [query] operation tells the calling process the fate of its
      own last non-query operation: the response that operation should have
      returned if it took effect, or F ({!Tbwf_sim.Value.Fail}) if it did
      not. [query] may itself abort.

    Both implementations in this library ({!Qa_object} and {!Qa_universal})
    are wait-free: every call is exactly one operation on one shared
    object, so it returns in the caller's next step — aborting instead of
    blocking is exactly what makes the universal construction of Figure 7
    live.

    That one-call shape is the {e call view} below: the object, the
    operation an invoke or a query performs on it, and the caller-side
    post-processing of a query's answer. A fiber calls through {!invoke}
    and {!query}; a step machine emits {!operation} as its
    {!Tbwf_sim.Runtime.M_call} and passes the answer through {!result}.
    Both go through the same view, so they do the same bookkeeping on the
    same steps. *)

type t = {
  name : string;
  obj : Tbwf_sim.Shared.t;  (** the object every invoke and query calls *)
  invoke_op : pid:int -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t;
      (** the operation that applies a T-operation for [pid], with any
          caller-side bookkeeping (the universal construction's op ids)
          done now: call it at the invocation step, once per invocation *)
  query_op : Tbwf_sim.Value.t;  (** the operation a query performs *)
  query_result : pid:int -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t;
      (** a query's answer as [query] returns it to [pid]: a response,
          [Fail] or [Abort] (the universal construction's fate lookup;
          the identity for {!Qa_object}) *)
  invoke : Tbwf_sim.Value.t -> Tbwf_sim.Value.t;
      (** apply a T-operation; returns its response or [Abort]. Must be
          called from inside a task. *)
  query : unit -> Tbwf_sim.Value.t;
      (** fate of the caller's last non-query operation: a response,
          [Fail], or [Abort]. Must be called from inside a task. *)
  peek_state : unit -> Tbwf_sim.Value.t;
      (** zero-step inspection of the current sequential state, for tests *)
}

type call = Invoke | Query  (** the two calls T_QA offers *)

val operation : t -> pid:int -> call -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t
(** [operation t ~pid call op]: what [call] performs on [t.obj] for [pid]
    ([op] is ignored by a query). An invoke's bookkeeping happens here. *)

val result : t -> pid:int -> call -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t
(** What [call] returns to [pid], given [t.obj]'s answer. *)

val perform : t -> call -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t
(** [perform t call op] is [t.invoke op] or [t.query ()]: the fiber form
    of one call. Must be called from inside a task. *)

val make :
  Tbwf_sim.Runtime.t ->
  name:string ->
  obj:Tbwf_sim.Shared.t ->
  invoke_op:(pid:int -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t) ->
  query_op:Tbwf_sim.Value.t ->
  query_result:(pid:int -> Tbwf_sim.Value.t -> Tbwf_sim.Value.t) ->
  peek_state:(unit -> Tbwf_sim.Value.t) ->
  t
(** An object from its call view: [invoke] and [query] are {!operation},
    one {!Tbwf_sim.Runtime.call} and {!result}, for the running pid. *)
