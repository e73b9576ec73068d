(** The obstruction-free double-ended queue of Herlihy, Luchangco and Moir
    (ICDCS 2003) — the paper's reference [10] and the original motivation
    for obstruction-freedom.

    A bounded array of CAS cells, each holding a tagged value plus a version
    counter; the array is always of the form LN⁺ v* RN⁺. A right-push bumps
    the version of the rightmost non-RN cell and then CASes the adjacent RN
    cell to the new value (left operations are mirror images); interference
    invalidates one of the two CASes and the operation retries. Every
    operation completes in a bounded number of its own steps once it runs
    without interference — obstruction-freedom — but two operations that
    keep interfering can retry forever, which is exactly the livelock that
    boosting (and TBWF) addresses.

    All operations must run inside a simulator task. *)

type t

val create : Tbwf_sim.Runtime.t -> name:string -> capacity:int -> t
(** [capacity] counts value slots; the boundary starts in the middle.
    Requires [capacity >= 2]. The array is non-circular (the simple version
    of [10]), so values do not shift: each side can push at most into the
    slots between the initial boundary and its own sentinel (≈ capacity/2
    per side unless the other side pops past the boundary). *)

val right_push : t -> Tbwf_sim.Value.t -> [ `Ok | `Full ]
val right_pop : t -> [ `Value of Tbwf_sim.Value.t | `Empty ]
val left_push : t -> Tbwf_sim.Value.t -> [ `Ok | `Full ]
val left_pop : t -> [ `Value of Tbwf_sim.Value.t | `Empty ]

val try_right_push :
  t -> Tbwf_sim.Value.t -> attempts:int -> [ `Ok | `Full | `Interfered ]
(** Bounded-retry {!right_push}: [`Interfered] after [attempts] rounds
    lost to contention. *)

val peek_contents : t -> Tbwf_sim.Value.t list
(** Zero-step view of the values currently between the null regions, left
    to right, for tests. *)
