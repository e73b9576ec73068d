open Tbwf_sim
open Tbwf_monitor

type row = {
  property : string;
  scenario : string;
  expected : string;
  observed : string;
  pass : bool;
}

type result = { rows : row list; all_pass : bool }

type toggle = On | Off_after_third | Oscillating
type q_variant = Timely | Untimely | Crashes

let pp_toggle = function
  | On -> "on"
  | Off_after_third -> "→off"
  | Oscillating -> "osc"

let pp_variant = function
  | Timely -> "q timely"
  | Untimely -> "q not timely"
  | Crashes -> "q crashes"

type observation = {
  samples : Activity_monitor.sample list;
  segments : int;
}

(* Drive one monitor through a scenario and sample its outputs. *)
let observe ?(seed = 66L) ~monitoring ~active_for ~variant ~segments
    ~segment_steps () =
  let rt = Runtime.create ~seed ~n:2 () in
  let mon = Activity_monitor.install rt ~p:0 ~q:1 in
  let total = segments * segment_steps in
  let drive_toggle target behaviour =
    match behaviour with
    | On -> target := true
    | Off_after_third ->
      target := true;
      ()
    | Oscillating -> target := true
  in
  drive_toggle mon.Activity_monitor.monitoring monitoring;
  drive_toggle mon.Activity_monitor.active_for active_for;
  (* Oscillation and delayed switch-off run as tasks so they take steps. *)
  let spawn_behaviour pid target behaviour =
    match behaviour with
    | On -> ()
    | Off_after_third ->
      Runtime.spawn rt ~pid ~name:"switch-off" (fun () ->
          Runtime.await (fun () -> Runtime.now rt >= total / 3);
          target := false)
    | Oscillating ->
      Runtime.spawn rt ~pid ~name:"oscillate" (fun () ->
          while true do
            target := true;
            for _ = 1 to 300 do
              Runtime.yield ()
            done;
            target := false;
            for _ = 1 to 300 do
              Runtime.yield ()
            done
          done)
  in
  spawn_behaviour 0 mon.Activity_monitor.monitoring monitoring;
  spawn_behaviour 1 mon.Activity_monitor.active_for active_for;
  (match variant with
  | Timely | Untimely -> ()
  | Crashes -> Runtime.crash_at rt ~pid:1 ~step:(total / 3));
  let policy =
    match variant with
    | Untimely ->
      Policy.of_patterns
        [ 0, Policy.Weighted 1.0;
          1, Policy.Flicker { active = 150; sleep = 400; growth = 1.6 } ]
    | Timely | Crashes -> Policy.round_robin ()
  in
  let samples = ref [] in
  for _seg = 1 to segments do
    Runtime.run rt ~policy ~steps:segment_steps;
    samples :=
      {
        Activity_monitor.at_step = Runtime.now rt;
        status_now = !(mon.Activity_monitor.status);
        fault_cntr_now = !(mon.Activity_monitor.fault_cntr);
      }
      :: !samples
  done;
  Runtime.stop rt;
  { samples = List.rev !samples; segments }

let last_status obs =
  match List.rev obs.samples with
  | [] -> "no samples"
  | s :: _ ->
    Fmt.str "status=%a faultCntr=%d" Activity_monitor.pp_status
      s.Activity_monitor.status_now s.Activity_monitor.fault_cntr_now

let status_row ~property ~monitoring ~active_for ~variant ~expected ~check obs =
  let suffix = max 2 (obs.segments / 4) in
  let pass = check obs.samples suffix in
  {
    property;
    scenario =
      Fmt.str "monitoring %s, active-for %s, %s" (pp_toggle monitoring)
        (pp_toggle active_for) (pp_variant variant);
    expected;
    observed = last_status obs;
    pass;
  }

let compute ?(quick = false) () =
  let segments = if quick then 10 else 24 in
  let segment_steps = if quick then 3_000 else 8_000 in
  let observe = observe ~segments ~segment_steps in
  let eventually expect samples suffix =
    Activity_monitor.check_status_eventually samples ~expect ~suffix
  in
  let is_unknown s = Activity_monitor.equal_status s Activity_monitor.Unknown in
  let is_active s = Activity_monitor.equal_status s Activity_monitor.Active in
  let is_inactive s = Activity_monitor.equal_status s Activity_monitor.Inactive in
  let bounded samples suffix = Activity_monitor.fault_cntr_bounded samples ~suffix in
  let unbounded samples suffix =
    Activity_monitor.fault_cntr_unbounded samples ~suffix
  in
  let mk ~property ~monitoring ~active_for ~variant ~expected ~check =
    let obs = observe ~monitoring ~active_for ~variant () in
    status_row ~property ~monitoring ~active_for ~variant ~expected ~check obs
  in
  let rows =
    [
      mk ~property:"1 (status)" ~monitoring:Off_after_third ~active_for:On
        ~variant:Timely ~expected:"eventually status=?"
        ~check:(eventually is_unknown);
      mk ~property:"2 (status)" ~monitoring:On ~active_for:On ~variant:Timely
        ~expected:"eventually status≠?"
        ~check:(eventually (fun s -> not (is_unknown s)));
      mk ~property:"3 (status)" ~monitoring:On ~active_for:On ~variant:Crashes
        ~expected:"eventually status≠active"
        ~check:(eventually (fun s -> not (is_active s)));
      mk ~property:"3 (status)" ~monitoring:On ~active_for:Off_after_third
        ~variant:Timely ~expected:"eventually status≠active"
        ~check:(eventually (fun s -> not (is_active s)));
      mk ~property:"4 (status)" ~monitoring:On ~active_for:On ~variant:Timely
        ~expected:"eventually status≠inactive"
        ~check:(eventually (fun s -> not (is_inactive s)));
      mk ~property:"5a (faultCntr)" ~monitoring:On ~active_for:Oscillating
        ~variant:Timely ~expected:"bounded" ~check:bounded;
      mk ~property:"5b (faultCntr)" ~monitoring:On ~active_for:On
        ~variant:Crashes ~expected:"bounded" ~check:bounded;
      mk ~property:"5c (faultCntr)" ~monitoring:On ~active_for:Off_after_third
        ~variant:Untimely ~expected:"bounded" ~check:bounded;
      mk ~property:"5d (faultCntr)" ~monitoring:Off_after_third ~active_for:On
        ~variant:Untimely ~expected:"bounded" ~check:bounded;
      mk ~property:"6 (faultCntr)" ~monitoring:On ~active_for:On
        ~variant:Untimely ~expected:"unbounded" ~check:unbounded;
    ]
  in
  { rows; all_pass = List.for_all (fun r -> r.pass) rows }

let report fmt result =
  let table =
    Table.create
      ~title:
        "E6: activity monitor A(p,q) specification matrix (Definition 9, \
         implementation of Figure 2)"
      ~columns:[ "property"; "scenario"; "expected"; "observed (final)"; "pass" ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [ row.property; row.scenario; row.expected; row.observed; Table.cell_bool row.pass ])
    result.rows;
  Table.print fmt table
