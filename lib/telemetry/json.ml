(* A minimal JSON tree with a deterministic printer.

   The repo deliberately avoids external JSON dependencies; telemetry
   snapshots need only construction and printing. Printing is canonical —
   object fields keep their construction order, floats go through "%.12g",
   no whitespace in compact mode — so equal trees print to equal strings
   and snapshots can be compared byte-for-byte. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_str f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 4096 in
  write buf t;
  Buffer.contents buf

let rec write_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> write buf v
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
    let pad = String.make indent ' ' in
    let pad' = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad';
        write_pretty buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    let pad = String.make indent ' ' in
    let pad' = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\": ";
        write_pretty buf (indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf '}'

let to_string_pretty t =
  let buf = Buffer.create 4096 in
  write_pretty buf 0 t;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* --- schema -------------------------------------------------------------- *)

(* The schema of a snapshot is the sorted set of its key paths, each tagged
   with the value's type. Array elements share the path "key[]" — every
   element contributes, so heterogeneous arrays surface as multiple lines —
   and an array also contributes its own "key: array" line, which keeps the
   schema stable when an array happens to be empty. CI pins this against a
   committed golden file to catch accidental export drift. *)
let schema_paths t =
  let tbl = Hashtbl.create 64 in
  let add path tag = Hashtbl.replace tbl (path ^ ": " ^ tag) () in
  let rec go path = function
    | Null -> add path "null"
    | Bool _ -> add path "bool"
    | Int _ -> add path "int"
    | Float _ -> add path "float"
    | Str _ -> add path "string"
    | Arr items ->
      add path "array";
      List.iter (go (path ^ "[]")) items
    | Obj fields ->
      add path "object";
      List.iter
        (fun (k, v) ->
          let sub = if path = "" then k else path ^ "." ^ k in
          go sub v)
        fields
  in
  go "" t;
  Hashtbl.fold (fun k () acc -> k :: acc) tbl []
  |> List.sort String.compare

let schema_string t = String.concat "\n" (schema_paths t) ^ "\n"
