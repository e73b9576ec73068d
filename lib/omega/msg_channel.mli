(** Communicating the final value of a variable that eventually stops
    changing, over abortable registers — paper Section 6, Figure 4.

    Writer side: whenever its message for q changes, p repeatedly writes it
    to the SWSR abortable register MsgRegister[p,q] until a write succeeds.
    Reader side: q polls MsgRegister[p,q], doubling down on patience
    (incrementing its read timeout) whenever a read aborts or returns an
    unchanged value — so that if p is q-timely, q eventually reads so rarely
    that p writes solo and succeeds.

    The guarantee (used by the Ω∆ proof) is only: if p is q-timely, keeps
    calling {!write_msgs}, and its message to q stops changing, then q
    eventually holds that final value in [prev_msg_from]. *)

type payload = int * int
(** Figure 6 sends (counter[p], actrTo[q]) pairs. *)

type t
(** Per-process channel endpoint state (both writer and reader sides). *)

val registers :
  ?factory:Tbwf_registers.Reg.factory ->
  Tbwf_sim.Runtime.t ->
  policy:Tbwf_registers.Abort_policy.t ->
  ?write_effect:Tbwf_registers.Abort_policy.write_effect ->
  n:int ->
  unit ->
  payload Tbwf_registers.Reg.Abortable.t option array array
(** [registers rt ~policy ~n ()] creates the full mesh: element [(p).(q)]
    is MsgRegister[p,q] (written by p, read by q); [None] on the diagonal. *)

val create :
  me:int ->
  registers:payload Tbwf_registers.Reg.Abortable.t option array array ->
  t
(** Fresh per-process state for process [me] over a shared register mesh. *)

val write_msgs : t -> payload array -> bool array
(** Figure 4, [WriteMsgs(msgTo)]: try to propagate [msgTo.(q)] to every
    q ≠ me; returns [prevWriteDone] — whether the latest value for q has
    been written successfully. Costs register-write steps only for entries
    that still need writing. *)

val read_msgs : t -> payload array
(** Figure 4, [ReadMsgs()]: poll peers' registers per the adaptive timeout;
    returns [prevMsgFrom] — the last successfully read payload from each
    peer (the array is the internal state; do not mutate). *)

(** {2 One step at a time}

    Figure 6's step machine ([Omega_abortable]) calls these between its
    own register operations; {!write_msgs} and {!read_msgs} are written
    from them. *)

val to_write : t -> int -> payload -> bool
(** [WriteMsgs] for one [q <> me] and its message [msgTo[q]]: whether q's
    register is written this round. A new message replaces the one in
    flight only after that one was written; {!message} is the value to
    write. *)

val message : t -> int -> payload
(** [msgCurr[q]], the message in flight to q. *)

val written : t -> int -> bool -> unit
(** [written t q ok] records the write {!to_write} asked for: [ok] is
    [false] when it aborted. *)

val read_due : t -> int -> bool
(** [ReadMsgs] for one [q <> me]: tick q's read timer and, when it runs
    out, restart it and return [true]: q's register is to be read now. *)

val received : t -> int -> payload option -> unit
(** Record the read {!read_due} asked for ([None] for an abort): the read
    timeout grows by one unless a new value arrived, which resets it. *)

val write_done : t -> bool array
(** The array {!write_msgs} returns (internal state; do not mutate). *)

val msg_from : t -> payload array
(** The array {!read_msgs} returns (internal state; do not mutate). *)
