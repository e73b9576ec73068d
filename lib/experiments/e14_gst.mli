(** E14 — eventual timeliness suffices (paper footnote 4 and the
    partial-synchrony tradition of Dwork–Lynch–Stockmeyer).

    "Timely" and "eventually timely" coincide when the bounds are unknown
    and per-run: a chaotic finite prefix merely raises the (unknown) bound.
    We run the TBWF stack through a global stabilization time (GST):
    before it, every process flickers with growing sleeps out of phase with
    the others (nobody is timely in the prefix); after it, everyone takes
    deterministic interleaved steps. The paper's prediction: whatever
    happened before GST, every process settles into steady per-window
    progress afterwards. *)

type row = {
  window : int * int;
  per_pid : int array;  (** ops completed in this window *)
  all_progressed : bool;
      (** every pid completed an op in this window: a description of the
          chaos prefix, not a verdict *)
}

type result = {
  gst : int;
  rows : row list;
  steady_after_gst : bool;
      (** {!Tbwf_check.Degradation.check} holds over the last quarter
          with every process predicted timely
          ({!Scenario.degraded_prediction}) *)
}

val compute : ?quick:bool -> unit -> result
val report : Format.formatter -> result -> unit
