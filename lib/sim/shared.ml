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
  mutable events : int;
  mutable in_flight : int;
  mutable invokes : int;
}

let make ~id ~name ~respond =
  { id; name; respond; events = 0; in_flight = 0; invokes = 0 }

let set_events t v = t.events <- v
let set_in_flight t v = t.in_flight <- v
let set_invokes t v = t.invokes <- v
