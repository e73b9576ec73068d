(** ASCII progress/leader timeline.

    One column per step window, one row per process plus a leader row.
    The leader row shows the self-announced leader in effect at the end
    of each window (['?'] before the first handoff). Process rows show
    completed-app-op density per window on the ramp [" .:-=+*#%@"]:
    [' '] is zero, ['@'] the busiest window of the whole run; an ['X']
    marks the window in which the process crashed (blank afterwards).
    Wide runs are re-bucketed so the chart fits the requested width. *)

type t = {
  columns : int;
  steps_per_col : int;  (** simulation steps represented by one column *)
  leader_row : string;
  pid_rows : string array;
  max_cell : int;  (** completions behind the densest cell *)
}

val build : ?width:int -> Collector.t -> t
(** [width] defaults to 72 columns. *)

val pp : Format.formatter -> t -> unit
