(** The experiment registry: one entry per table/series in EXPERIMENTS.md. *)

type entry = {
  id : string;  (** e.g. "E1" *)
  title : string;
  run : ?quick:bool -> Format.formatter -> unit;
      (** compute and print the experiment's table(s) *)
}

val all : entry list

val find : string -> entry option
(** Look up by id, case-insensitive. *)
