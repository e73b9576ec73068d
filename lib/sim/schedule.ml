type t = { n : int; seed : int64; pids : int list }

let magic = "tbwf-sched"
let version = "v1"

let make ?(seed = 0xC0FFEEL) ~n pids =
  if n < 1 then invalid_arg "Schedule.make: need at least one process";
  List.iter
    (fun pid ->
      if pid < -1 || pid >= n then
        invalid_arg (Fmt.str "Schedule.make: pid %d out of range" pid))
    pids;
  { n; seed; pids }

let n t = t.n
let seed t = t.seed
let pids t = t.pids
let length t = List.length t.pids

(* Run-length encode the pid sequence: "0x12 1 _x3 2" means twelve steps of
   pid 0, one of pid 1, three idle steps, one of pid 2. *)
let encode_pids pids =
  let token pid count =
    let name = if pid < 0 then "_" else string_of_int pid in
    if count = 1 then name else Fmt.str "%sx%d" name count
  in
  let buf = Buffer.create 64 in
  let flush_group pid count =
    if count > 0 then begin
      if Buffer.length buf > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (token pid count)
    end
  in
  let cur = ref (-2) and count = ref 0 in
  List.iter
    (fun pid ->
      if pid = !cur then incr count
      else begin
        flush_group !cur !count;
        cur := pid;
        count := 1
      end)
    pids;
  flush_group !cur !count;
  Buffer.contents buf

let to_string t =
  Fmt.str "%s %s n=%d seed=%Ld\n%s\n" magic version t.n t.seed
    (encode_pids t.pids)

let pp fmt t = Fmt.string fmt (to_string t)

let decode_token tok =
  let pid_of s =
    if String.equal s "_" then Ok (-1)
    else
      match int_of_string_opt s with
      | Some pid when pid >= 0 -> Ok pid
      | Some _ | None -> Error (Fmt.str "bad pid %S" s)
  in
  match String.index_opt tok 'x' with
  | None -> Result.map (fun pid -> pid, 1) (pid_of tok)
  | Some i ->
    let pid_part = String.sub tok 0 i in
    let count_part = String.sub tok (i + 1) (String.length tok - i - 1) in
    (match pid_of pid_part, int_of_string_opt count_part with
    | Ok pid, Some count when count > 0 -> Ok (pid, count)
    | Ok _, _ -> Error (Fmt.str "bad repeat count in %S" tok)
    | (Error _ as e), _ -> e)

let of_string text =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l ->
           String.length l > 0 && not (String.length l > 0 && l.[0] = '#'))
  in
  match lines with
  | [] -> Error "empty schedule"
  | header :: body ->
    let* n, seed =
      match String.split_on_char ' ' header with
      | m :: v :: fields when String.equal m magic && String.equal v version ->
        let assoc =
          List.filter_map
            (fun f ->
              match String.index_opt f '=' with
              | Some i ->
                Some
                  ( String.sub f 0 i,
                    String.sub f (i + 1) (String.length f - i - 1) )
              | None -> None)
            fields
        in
        let* n =
          match List.assoc_opt "n" assoc with
          | Some s ->
            (match int_of_string_opt s with
            | Some n when n >= 1 -> Ok n
            | Some _ | None -> Error "bad n= field")
          | None -> Error "missing n= field"
        in
        let* seed =
          match List.assoc_opt "seed" assoc with
          | Some s ->
            (match Int64.of_string_opt s with
            | Some seed -> Ok seed
            | None -> Error "bad seed= field")
          | None -> Ok 0xC0FFEEL
        in
        Ok (n, seed)
      | m :: v :: _ ->
        Error (Fmt.str "bad header %S %S (want %S %s)" m v magic version)
      | _ -> Error "bad header line"
    in
    let tokens =
      List.concat_map (String.split_on_char ' ') body
      |> List.filter (fun tok -> String.length tok > 0)
    in
    let* pids =
      List.fold_left
        (fun acc tok ->
          let* acc = acc in
          let* pid, count = decode_token tok in
          if pid >= n then Error (Fmt.str "pid %d out of range (n=%d)" pid n)
          else Ok (List.rev_append (List.init count (fun _ -> pid)) acc))
        (Ok []) tokens
    in
    Ok { n; seed; pids = List.rev pids }
