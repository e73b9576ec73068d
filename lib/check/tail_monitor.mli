(** Windowed completion monitor: a stall signal, not a verdict.

    Where {!Degradation} judges one tail against one plan prediction,
    this watches the whole run as a sequence of fixed-size step windows
    and records, per process, whether each {e closed} window saw at least
    one completion. Long soak runs stream its {!to_json} alongside each
    telemetry record, so a process that stalls shows up in the window
    where it happens, not at the end of the run. It has no prediction:
    it watches every pid, crashed and untimely ones included, and no exit
    code reads it. O(n) memory regardless of horizon, and as
    deterministic as the event stream feeding it. *)

type t

val create : n:int -> window:int -> unit -> t
(** [window] is in steps. A closed window counts as ok for a pid that
    completed at least one operation in it. Raises [Invalid_argument] if
    [window < 1]. *)

val sink : t -> Tbwf_sim.Sink.t
(** Feed the monitor from a run; compose with other observers via
    [Sink.tee]. A window closes when the first event of a later window
    arrives; call sites only need [on_step] and [Op_complete]. *)

val to_json : t -> Tbwf_telemetry.Json.t
(** The window length, the fixed floor (1), every pid as watched, the
    closed-window count, the last closed window's completions, each
    pid's ok-window count and minimum, and whether every pid met the
    floor in every closed window. *)
