(** Bidirectional encodings between typed register contents and the
    simulator's {!Tbwf_sim.Value} wire type. *)

type 'a t = {
  enc : 'a -> Tbwf_sim.Value.t;
  dec : Tbwf_sim.Value.t -> 'a;
}

val int : int t
val bool : bool t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val list : 'a t -> 'a list t
val value : Tbwf_sim.Value.t t
(** Identity codec, for registers that store raw values. *)
