(** Dynamic activity monitors A(p,q) — paper Section 5.1, Figure 2.

    A(p,q) lets process [p] determine whether [q] is currently active or
    inactive, and whether [q] is p-timely. Both sides can turn their
    participation on and off at any time:

    - [p] writes its input [monitoring] (on/off);
    - [q] writes its input [active_for] (on/off);
    - A(p,q) writes outputs [status] ∈ {active, inactive, ?} and
      [fault_cntr] ∈ ℕ at [p].

    The implementation follows Figure 2 verbatim: [q] writes an increasing
    heartbeat counter to a shared atomic register while active (and the
    sentinel −1 when it stops willingly); [p] polls with an adaptive timeout
    and increments [fault_cntr] only when the register holds a non-sentinel
    value that has increased since the last increment — the two conditions
    that keep [fault_cntr] bounded when [q] crashes or stops willingly
    (Definition 9, properties 5(b) and 5(c)). *)

type status = Active | Inactive | Unknown

val pp_status : Format.formatter -> status -> unit
val equal_status : status -> status -> bool

type t = {
  p : int;  (** the monitoring process *)
  q : int;  (** the monitored process *)
  monitoring : bool ref;  (** input at p: does p want to monitor q? *)
  active_for : bool ref;  (** input at q: is q active for p? *)
  status : status ref;  (** output at p *)
  fault_cntr : int ref;  (** output at p *)
  hb : int Tbwf_registers.Reg.t;
      (** the register HbRegister[q,p], written by q and read by p — a
          handle, so the substrate (shared memory or message passing) is
          whichever factory wired the monitor *)
}

val install :
  ?adapt:(int -> int) ->
  ?increment_guards:bool ->
  ?factory:Tbwf_registers.Reg.factory ->
  Tbwf_sim.Runtime.t ->
  p:int ->
  q:int ->
  t
(** Create the monitor's shared register and spawn its two tasks: the
    monitored-side loop on process [q] and the monitoring-side loop on
    process [p]. Both inputs start off, [status] starts at [Unknown] and
    [fault_cntr] at 0. Requires [p <> q]. [factory] makes the register
    (default {!Tbwf_registers.Reg.shared_factory}).

    [adapt] is how the timeout grows on each suspicion; the default is the
    paper's [succ] (+1). The +1 is load-bearing for Definition 9 property 6:
    a process whose step gaps grow geometrically must keep being suspected,
    and a timeout that only grows linearly can never overtake geometric
    gaps. An aggressive doubling adaptation (as naive failure detectors use)
    eventually trusts such a process forever — which is exactly the
    non-gracefully-degrading baseline of experiment E2.

    [increment_guards] (default true) enables Figure 2's two conditions on
    incrementing [fault_cntr]: (a) the register holds a non-sentinel value
    and (b) it increased since the last increment. Disabling them is the
    ablation of experiment E11: without the guards a crashed or willingly
    inactive process is suspected forever, violating Definition 9
    properties 5(b)–(c).

    Both loops are step machines ({!Tbwf_sim.Runtime.spawn_machine}) on
    either substrate: an explicit program counter, one transition per
    step, each register operation run through the register's
    {!Tbwf_registers.Reg.Port.t}, whether it is one call or quorum rounds
    of many. *)

(** {2 Ground-truth property checking — Definition 9}

    Experiments sample the outputs between run segments; these helpers
    evaluate the specification's six properties on such samples. *)

type sample = { at_step : int; status_now : status; fault_cntr_now : int }

val check_status_eventually :
  sample list -> expect:(status -> bool) -> suffix:int -> bool
(** True iff every sample in the last [suffix] samples satisfies
    [expect]. *)

val fault_cntr_bounded : sample list -> suffix:int -> bool
(** True iff [fault_cntr] did not grow over the last [suffix] samples. *)

val fault_cntr_unbounded : sample list -> suffix:int -> bool
(** True iff [fault_cntr] strictly grew across the last [suffix] samples. *)
