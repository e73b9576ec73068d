(** E4 — Ω∆ from atomic registers (Figure 3, Theorems 11–12).

    Scenario family over the candidate classes of Definition 4, checking
    the election properties of Definition 5 / Theorem 7:

    - all-timely permanent candidates, n ∈ {2, 4, 8};
    - a non-timely flickering candidate holding the smallest pid (it would
      win every tie-break; it must still lose the election);
    - mixed P/R/N classes;
    - leader crash and re-election. *)

type row = {
  scenario : string;
  n : int;
  elected : int option;
  elected_ok : bool;  (** elected ∈ expected set (timely pcands) *)
  stabilization_step : int option;
  violations : string list;
}

type result = { rows : row list; all_pass : bool }

val compute : ?quick:bool -> unit -> result
val report : Format.formatter -> result -> unit

(** Shared row builder, reused by E5 with a different Ω∆ implementation
    and abort policy. *)
val scenario_rows :
  ?mesh_policy:Tbwf_registers.Abort_policy.t ->
  quick:bool ->
  Tbwf_system.System.id ->
  row list
