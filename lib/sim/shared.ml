type ctx = {
  pid : int;
  invoke_step : int;
  respond_step : int;
  overlapped : bool;
  overlap_ops : Value.t list;
  step_contended : bool;
  pending_others : int;
  rng : Rng.t;
  op : Value.t;
}

type t = {
  id : int;
  name : string;
  respond : ctx -> Value.t;
  tracked : bool;
}

let make ~id ~name ~respond ~tracked = { id; name; respond; tracked }
