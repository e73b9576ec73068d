open Tbwf_sim

type t = {
  name : string;
  obj : Shared.t;
  invoke_op : pid:int -> Value.t -> Value.t;
  query_op : Value.t;
  query_result : pid:int -> Value.t -> Value.t;
  invoke : Value.t -> Value.t;
  query : unit -> Value.t;
  peek_state : unit -> Value.t;
}

type call = Invoke | Query

let operation t ~pid call op =
  match call with Invoke -> t.invoke_op ~pid op | Query -> t.query_op

let result t ~pid call v =
  match call with Invoke -> v | Query -> t.query_result ~pid v

let call_at rt t call op =
  let pid = Runtime.running rt in
  result t ~pid call (Runtime.call t.obj (operation t ~pid call op))

let perform t call op =
  match call with Invoke -> t.invoke op | Query -> t.query ()

let make rt ~name ~obj ~invoke_op ~query_op ~query_result ~peek_state =
  let rec t =
    {
      name;
      obj;
      invoke_op;
      query_op;
      query_result;
      invoke = (fun op -> call_at rt t Invoke op);
      query = (fun () -> call_at rt t Query Value.Unit);
      peek_state;
    }
  in
  t
