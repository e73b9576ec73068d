(** A minimal JSON tree with a deterministic printer.

    The repo deliberately avoids external JSON dependencies; telemetry
    snapshots need only construction and printing. Printing is canonical
    — object fields keep construction order, floats go through ["%.12g"]
    (integers as ["%.1f"]), compact mode has no whitespace — so equal
    trees print to equal strings and snapshots compare byte-for-byte. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact canonical rendering. *)

val to_string_pretty : t -> string
(** Two-space-indented rendering, newline-terminated. *)

val member : string -> t -> t option
(** [member key json] is the field [key] of an [Obj], [None] otherwise. *)

val schema_paths : t -> string list
(** The document's schema: the sorted, deduplicated set of its key paths,
    each tagged with the value's type (["steps.total: int"]). Array
    elements share the path ["key[]"], and an array also contributes its
    own ["key: array"] line so the schema stays stable when it happens to
    be empty. CI pins snapshot schemas against committed goldens. *)

val schema_string : t -> string
(** {!schema_paths} joined with newlines, newline-terminated. *)
