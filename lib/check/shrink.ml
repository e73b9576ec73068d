(* Delta debugging (Zeller & Hildebrandt's ddmin, list specialization):
   given a failing input list, repeatedly try keeping only a chunk or
   deleting a chunk, at finer and finer granularity, until no single
   element can be removed without the failure disappearing. *)

let chunks ~granularity items =
  let len = List.length items in
  let size = max 1 ((len + granularity - 1) / granularity) in
  let rec split acc current n = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
      if n = size then split (List.rev current :: acc) [ x ] 1 rest
      else split acc (x :: current) (n + 1) rest
  in
  split [] [] 0 items

let ddmin ~fails items =
  let tests = ref 0 in
  let fails candidate =
    incr tests;
    !tests <= 10_000 && fails candidate
  in
  let rec reduce granularity items =
    let len = List.length items in
    if len <= 1 || granularity > len then items
    else begin
      let parts = chunks ~granularity items in
      (* Try each complement (input minus one chunk). *)
      let rec try_complements before = function
        | [] -> None
        | chunk :: after ->
          let candidate = List.concat (List.rev_append before after) in
          if candidate <> [] && fails candidate then Some candidate
          else try_complements (chunk :: before) after
      in
      (* Try each chunk alone (only worthwhile at granularity 2, where a
         chunk is half the input — classic ddmin "reduce to subset"). *)
      let rec try_subsets = function
        | [] -> None
        | chunk :: rest ->
          if List.length chunk < len && chunk <> [] && fails chunk then
            Some chunk
          else try_subsets rest
      in
      match try_subsets parts with
      | Some smaller -> reduce 2 smaller
      | None ->
        (match try_complements [] parts with
        | Some smaller -> reduce (max 2 (granularity - 1)) smaller
        | None ->
          if granularity >= len then items
          else reduce (min len (2 * granularity)) items)
    end
  in
  let reduced = if fails items then reduce 2 items else items in
  (* Final 1-minimality pass: drop single elements until a fixpoint. *)
  let rec one_pass items =
    let rec try_drop before = function
      | [] -> None
      | x :: after ->
        let candidate = List.rev_append before after in
        if candidate <> [] && fails candidate then Some candidate
        else try_drop (x :: before) after
    in
    match try_drop [] items with
    | Some smaller -> one_pass smaller
    | None -> items
  in
  one_pass reduced
