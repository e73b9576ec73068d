(** Communicating a heartbeat over abortable registers — paper Section 6,
    Figure 5.

    A single abortable heartbeat register is not enough: all of the reader's
    reads may abort (which proves the writer is alive but not that it is
    timely — the writer might take ever longer to complete each write). The
    paper's fix is two registers written in alternation: the reader deems
    the writer timely only if {e both} reads abort-or-advance. A writer that
    stalls inside one write leaves the other register unchanged and
    non-aborting, which the reader detects.

    [receive] maintains the reader's [active_set]: the set of processes the
    reader currently considers timely with respect to itself. *)

type t
(** Per-process heartbeat endpoint state. *)

type mesh = {
  hb1 : int Tbwf_registers.Reg.Abortable.t option array array;
  hb2 : int Tbwf_registers.Reg.Abortable.t option array array;
      (** element [(p).(q)] is written by p and read by q; [None] on the
          diagonal *)
}

val registers :
  ?factory:Tbwf_registers.Reg.factory ->
  Tbwf_sim.Runtime.t ->
  policy:Tbwf_registers.Abort_policy.t ->
  ?write_effect:Tbwf_registers.Abort_policy.write_effect ->
  n:int ->
  unit ->
  mesh

val create : me:int -> mesh:mesh -> t
(** Fresh state; the initial active set is [{me}]. *)

val send : t -> dest:bool array -> unit
(** Figure 5, [SendHeartbeat(dest)]: bump the send counter and write it to
    both heartbeat registers of every q with [dest.(q)] (results ignored —
    an aborted heartbeat write is itself a sign of life for the reader). *)

val receive : t -> bool array
(** Figure 5, [ReceiveHeartbeat()]: poll peers per the adaptive timeout and
    update membership; returns the active-set array (internal state; do not
    mutate). Element [me] is always true. *)

(** {2 One step at a time}

    Figure 6's step machine ([Omega_abortable]) calls these between its
    own register operations; {!send} and {!receive} are written from
    them. *)

val next_beat : t -> int
(** Bump the send counter and return it: the value {!send} writes to both
    registers of every destination. *)

val due : t -> int -> bool
(** [ReceiveHeartbeat] for one [q <> me]: tick q's timer and, when it runs
    out, restart it, keep the last two reads as the previous ones and
    return [true]: both of q's registers are to be read now. *)

val judge : t -> int -> int option -> int option -> unit
(** [judge t q hb1 hb2] records the two reads {!due} asked for ([None] for
    an aborted read): q stays in the active set iff each read aborted or
    advanced, and otherwise leaves it and q's timeout grows by one. *)

val active_set : t -> bool array
(** The array {!receive} returns (internal state; do not mutate). *)
