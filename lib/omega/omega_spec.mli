(** The dynamic leader elector Ω∆ — specification side (paper Section 4).

    Each process [p] interacts with Ω∆ through two local variables:
    [candidate] (input: does p currently compete for leadership?) and
    [leader] (output: who Ω∆ thinks the leader is, or "?" when it offers no
    information). Definition 5 requires that if some timely process is a
    permanent candidate, a timely (permanent or repeated) candidate ℓ is
    eventually elected: ℓ sees itself, permanent candidates see ℓ, repeated
    candidates see ℓ or ?, and non-candidates eventually see ?. *)

type view = Leader of int | No_leader  (** [No_leader] is the paper's "?" *)

val pp_view : Format.formatter -> view -> unit
val equal_view : view -> view -> bool

type handle = {
  pid : int;
  candidate : bool ref;  (** Ω∆ input, written by the application *)
  leader : view ref;  (** Ω∆ output, written by the Ω∆ implementation *)
}

val make_handle : pid:int -> handle

val set_view : Tbwf_sim.Runtime.t -> handle -> view -> unit
(** [set_view rt h v] updates [h.leader] to [v], emitting a telemetry
    {!Tbwf_sim.Sink.Leader_view} signal when the view actually changes.
    Ω∆ implementations route every [leader :=] assignment through this. *)

val precedes : int array -> int -> int -> bool
(** [precedes counter q l] iff [(counter.(q), q) < (counter.(l), l)]: the
    order in which both Ω∆ implementations (Figures 3 and 6) pick their
    leader, least counter first and ties to the smaller pid. *)

(** {2 Canonical use (Definition 6)}

    After setting [candidate] to false, a canonical user waits until
    [leader ≠ p] before setting [candidate] to true again. Theorem 7 then
    guarantees the elected leader is a timely {e permanent} candidate. *)

val canonical_join : handle -> unit
(** Wait (inside a task) until [leader <> Leader pid], then set
    [candidate := true]. *)

val leave : handle -> unit
(** Set [candidate := false]. *)

(** {2 Run classification and property checking}

    Experiments sample every handle between run segments and evaluate
    Definition 5 / Theorem 7 on the samples. *)

type sample = {
  at_step : int;
  views : view array;  (** indexed by pid *)
  candidacies : bool array;  (** indexed by pid *)
}

val take_sample : at_step:int -> handle array -> sample

type verdict = {
  elected : int option;
      (** the stable leader over the checked suffix, if any *)
  violations : string list;  (** human-readable property violations *)
}

val check_election :
  samples:sample list ->
  suffix:int ->
  pcandidates:int list ->
  rcandidates:int list ->
  ncandidates:int list ->
  timely:int list ->
  crashed:int list ->
  ?lagging:int list ->
  unit ->
  verdict
(** Evaluate Definition 5 (with the Theorem 7 strengthening that the elected
    leader is in Pcandidates ∩ Timely when the use is canonical — pass the
    expected classes accordingly) over the last [suffix] samples:
    - property 1(a): some ℓ ∈ pcandidates ∩ timely has [views.(ℓ) = Leader ℓ]
      throughout the suffix;
    - property 1(b): every p ∈ pcandidates has [views.(p) = Leader ℓ]
      throughout the suffix;
    - property 1(c): every p ∈ rcandidates has [views.(p) ∈ {?, Leader ℓ}]
      throughout the suffix;
    - property 2: every p ∈ ncandidates has [views.(p) = ?] throughout.
    If [pcandidates ∩ timely] is empty, only property 2 is checked.

    [lagging] processes (typically the non-timely ones) are exempt from the
    view-settling checks 1(b), 1(c) and 2: the paper's properties quantify
    over infinite suffixes, and a correct-but-arbitrarily-slow process can
    hold a stale view at every finite sampling point while still satisfying
    them in the limit. They are still barred from being elected unless
    timely, via 1(a). *)
