(** Minimal column-aligned text tables for experiment reports. *)

type t

val create : title:string -> columns:string list -> t
val add_row : t -> string list -> unit
val print : Format.formatter -> t -> unit

val cell_int : int -> string
val cell_float : float -> string
val cell_bool : bool -> string
(** Render [true] as "yes" and [false] as "NO" so violations stand out. *)

val cell_ints : int list -> string
(** Comma-separated without line breaks (Fmt's [comma] inserts break hints
    that would wrap inside table cells). *)
