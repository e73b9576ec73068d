open Tbwf_sim

let inc = Value.Str "inc"
let add delta = Value.Pair (Str "add", Int delta)
let read = Value.read_op

let spec =
  {
    Seq_spec.name = "counter";
    initial = Value.Int 0;
    apply =
      (fun state op ->
        match state, op with
        | Value.Int n, Value.Str "inc" -> Some (Value.Int (n + 1), Value.Int n)
        | Value.Int n, Value.Pair (Str "add", Int delta) ->
          Some (Value.Int (n + delta), Value.Int n)
        | Value.Int n, Value.Pair (Str "read", _) ->
          Some (state, Value.Int n)
        | _ -> None);
  }
