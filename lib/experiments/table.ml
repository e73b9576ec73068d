type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* reverse order *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- row :: t.rows

let print fmt t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i header ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length header) rows)
      t.columns
  in
  let pad width s = s ^ String.make (width - String.length s) ' ' in
  let print_row cells =
    let padded = List.map2 pad widths cells in
    Fmt.pf fmt "| %s |@." (String.concat " | " padded)
  in
  let rule =
    "+"
    ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "+"
  in
  Fmt.pf fmt "@.%s@." t.title;
  Fmt.pf fmt "%s@." rule;
  print_row t.columns;
  Fmt.pf fmt "%s@." rule;
  List.iter print_row rows;
  Fmt.pf fmt "%s@." rule

let cell_int = string_of_int
let cell_float f = Fmt.str "%.2f" f
let cell_bool b = if b then "yes" else "NO"
let cell_ints xs = String.concat ", " (List.map string_of_int xs)
