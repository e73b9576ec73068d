open Tbwf_sim

type 'a t = { enc : 'a -> Value.t; dec : Value.t -> 'a }

let int = { enc = (fun i -> Value.Int i); dec = Value.to_int }
let bool = { enc = (fun b -> Value.Bool b); dec = Value.to_bool }

let pair a b =
  {
    enc = (fun (x, y) -> Value.Pair (a.enc x, b.enc y));
    dec =
      (fun v ->
        let x, y = Value.to_pair v in
        a.dec x, b.dec y);
  }

let triple a b c =
  {
    enc = (fun (x, y, z) -> Value.Pair (a.enc x, Value.Pair (b.enc y, c.enc z)));
    dec =
      (fun v ->
        let x, yz = Value.to_pair v in
        let y, z = Value.to_pair yz in
        a.dec x, b.dec y, c.dec z);
  }

let list a =
  {
    enc = (fun xs -> Value.List (List.map a.enc xs));
    dec = (fun v -> List.map a.dec (Value.to_list v));
  }

let value = { enc = Fun.id; dec = Fun.id }
