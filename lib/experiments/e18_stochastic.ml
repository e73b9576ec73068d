(* E18: "practically wait-free" under stochastic schedulers, measured as
   completion-time tails. Alistarh, Censor-Hillel and Shavit observed
   that lock-free algorithms behave wait-free under stochastic
   schedulers: with every process equally likely to be scheduled, the
   adversarial interleavings that starve an operation have vanishing
   probability, so completion-time tails stay short even for algorithms
   with no worst-case progress bound. The qualitative claim this
   experiment reproduces: under a uniform stochastic scheduler {e all
   five} systems — including the naive booster and bare retry, which the
   nemesis campaigns reject — show tight per-operation tails; under the
   E2 adversary (one process decelerating forever) the baselines' tails
   blow up by orders of magnitude while the TBWF systems' tails stay
   bounded. Timeliness-based wait-freedom is exactly the gap between
   those two columns: the paper's guarantee is the stochastic-scheduler
   experience, delivered under an adversary.

   Tails come from the telemetry span tracer's quantile sketches
   (app-layer invoke→respond times, in steps), so the numbers are
   deterministic per seed and mergeable across runs. *)

open Tbwf_system
open Tbwf_telemetry

type regime = Uniform | Adversarial

let regime_name = function
  | Uniform -> "uniform"
  | Adversarial -> "adversary"

type cell = {
  completed : int;  (* workload operations completed over the run *)
  ops_observed : int;  (* app-layer spans the tracer closed *)
  p50 : int;
  p99 : int;
  p999 : int;
  max_time : int;  (* all in steps, invoke to respond *)
}

type result = {
  n : int;
  steps : int;
  cells : (System.id * (regime * cell) list) list;
  (* The headline numbers: how much of its stochastic-scheduler
     throughput each population keeps under the adversary. Tails alone
     can't tell the story for bare retry — its app spans are per
     *attempt*, so they stay short while it completes nothing — but
     completed operations can: the TBWF systems retain their uniform
     throughput, the baselines collapse. *)
  tbwf_min_retention : float;  (* min over paper systems *)
  baseline_max_retention : float;  (* max over baselines *)
}

let retention regimes =
  match
    List.assoc_opt Uniform regimes, List.assoc_opt Adversarial regimes
  with
  | Some u, Some a when u.completed > 0 ->
    float_of_int a.completed /. float_of_int u.completed
  | _ -> 0.0

let run_cell ~n ~steps ~seed ~regime system =
  let stack =
    System.build ~seed ~record_trace:false ~telemetry:true ~n system
  in
  let telemetry = Option.get stack.System.telemetry in
  let policy =
    match regime with
    | Uniform ->
      (* Every pid equally likely each step: the stochastic scheduler
         under which lock-free is practically wait-free. *)
      Tbwf_sim.Policy.weighted (Array.init n (fun pid -> pid, 1.0))
    | Adversarial ->
      (* The E2 adversary: pid 0's gaps grow geometrically forever,
         everyone else is timely. *)
      Scenario.degraded_policy ~n ~timely:(List.init (n - 1) (fun i -> i + 1))
  in
  Tbwf_sim.Runtime.run stack.System.rt ~policy ~steps;
  Tbwf_sim.Runtime.stop stack.System.rt;
  let q = Span.tail_of (Collector.spans telemetry) Tbwf_sim.Sink.App in
  {
    completed =
      Array.fold_left ( + ) 0 (Collector.app_completed telemetry);
    ops_observed = Quantile.count q;
    p50 = Quantile.p50 q;
    p99 = Quantile.p99 q;
    p999 = Quantile.p999 q;
    max_time = Quantile.max_value q;
  }

let compute ?(quick = false) () =
  let n = if quick then 4 else 6 in
  let steps = if quick then 60_000 else 240_000 in
  let cells =
    List.map
      (fun system ->
        ( system,
          List.map
            (fun regime ->
              ( regime,
                run_cell ~n ~steps ~seed:0xE18L ~regime system ))
            [ Uniform; Adversarial ] ))
      System.all
  in
  let retention_of system =
    match List.assoc_opt system cells with
    | None -> 0.0
    | Some rs -> retention rs
  in
  {
    n;
    steps;
    cells;
    tbwf_min_retention =
      List.fold_left
        (fun acc s -> min acc (retention_of s))
        infinity System.paper_systems;
    baseline_max_retention =
      List.fold_left
        (fun acc s -> max acc (retention_of s))
        0.0 System.baseline_systems;
  }

let report fmt r =
  let table =
    Table.create
      ~title:
        (Fmt.str
           "E18: completion-time tails, stochastic scheduler vs adversary \
            (n=%d, %d steps)"
           r.n r.steps)
      ~columns:
        [ "system"; "regime"; "completed"; "ops"; "p50"; "p99"; "p999";
          "max"; "retained" ]
  in
  List.iter
    (fun (system, regimes) ->
      List.iter
        (fun (regime, c) ->
          Table.add_row table
            [
              System.to_string system;
              regime_name regime;
              string_of_int c.completed;
              string_of_int c.ops_observed;
              string_of_int c.p50;
              string_of_int c.p99;
              string_of_int c.p999;
              string_of_int c.max_time;
              (match regime with
              | Uniform -> "-"
              | Adversarial -> Fmt.str "%.2f" (retention regimes));
            ])
        regimes)
    r.cells;
  Table.print fmt table;
  Fmt.pf fmt
    "per-operation completion times (steps, app-layer invoke to respond) \
     from the telemetry quantile sketches; 'uniform' schedules every \
     process with equal probability each step, 'adversary' is E2's \
     decelerating process 0@.";
  Fmt.pf fmt
    "the practically-wait-free gap: under the uniform stochastic \
     scheduler every system looks wait-free — tight tails, steady \
     completions (the Alistarh-Censor-Hillel-Shavit effect; bare retry's \
     spans are per attempt, so watch its 'completed' column, not its \
     tails); under the adversary the baselines keep at most %.2f of \
     their uniform throughput while every TBWF system keeps %.2f or \
     more — the paper's guarantee is the stochastic-scheduler \
     experience, delivered under an adversary@."
    r.baseline_max_retention r.tbwf_min_retention
