(** E1 — the graceful degradation curve (paper §1.1).

    n processes share one TBWF counter and issue endless increments; k of
    them are timely, the rest flicker with unboundedly growing sleeps. As k
    goes from 0 to n the progress guarantee goes from obstruction-freedom
    (k = 0: nothing promised under contention) through "k processes are
    guaranteed to progress" up to wait-freedom (k = n). The paper's
    qualitative prediction: every timely process keeps completing
    operations at a healthy rate regardless of how many non-timely
    processes flicker around it. *)

type row = {
  k : int;  (** number of timely processes *)
  timely_min : int;  (** fewest ops completed by any timely process *)
  timely_mean : float;
  untimely_mean : float;
  timely_rate : float;
      (** measured mean completions per 1024-step telemetry window per
          timely process, from the run's attached collector *)
  leader_epochs : int;
      (** leadership handoffs observed by telemetry (self-announcements
          that changed the leader) *)
  tbwf_holds : bool;
      (** {!Tbwf_check.Degradation.check} holds over the second half:
          every timely process stayed timely (bound 4n) and completed
          [Degradation.required_tail_ops] ops there *)
  lock_free : bool;  (** someone completed an op in the second half *)
}

type result = { n : int; steps : int; rows : row list }

val compute : ?quick:bool -> unit -> result
val report : Format.formatter -> result -> unit
