type ctx = {
  pid : int;
  respond_step : int;
  overlapped : bool;
  step_contended : bool;
  rng : Rng.t;
  op : Value.t;
}

type t = {
  id : int;
  name : string;
  respond : ctx -> Value.t;
}

let make ~id ~name ~respond = { id; name; respond }
