open Tbwf_sim
open Tbwf_omega

type classes = {
  pcands : int list;
  rcands : int list;
  ncands : int list;
  untimely : int list;
  crashes : (int * int) list;
}

let everyone_p ~n =
  {
    pcands = List.init n Fun.id;
    rcands = [];
    ncands = [];
    untimely = [];
    crashes = [];
  }

type outcome = {
  verdict : Omega_spec.verdict;
  stabilization_step : int option;
  total_steps : int;
  samples : Omega_spec.sample list;
}

let spawn_drivers ?(rcand_phase = 400) ?(ncand_phase = 600) rt handles classes =
  List.iter
    (fun pid ->
      Runtime.spawn rt ~pid ~name:"pcand" (fun () ->
          handles.(pid).Omega_spec.candidate := true))
    classes.pcands;
  List.iter
    (fun pid ->
      Runtime.spawn rt ~pid ~name:"rcand" (fun () ->
          while true do
            Omega_spec.canonical_join handles.(pid);
            for _ = 1 to rcand_phase do
              Runtime.yield ()
            done;
            Omega_spec.leave handles.(pid);
            for _ = 1 to rcand_phase do
              Runtime.yield ()
            done
          done))
    classes.rcands;
  List.iter
    (fun pid ->
      Runtime.spawn rt ~pid ~name:"ncand" (fun () ->
          handles.(pid).Omega_spec.candidate := true;
          for _ = 1 to ncand_phase do
            Runtime.yield ()
          done;
          handles.(pid).Omega_spec.candidate := false))
    classes.ncands

(* Earliest sampled step from which every live pcand's view equals the final
   elected leader forever (within the samples). *)
let stabilization samples ~pcands ~elected =
  match elected with
  | None -> None
  | Some ell ->
    let arr = Array.of_list samples in
    let settled sample =
      List.for_all
        (fun pid ->
          Omega_spec.equal_view
            sample.Omega_spec.views.(pid)
            (Omega_spec.Leader ell))
        pcands
    in
    let len = Array.length arr in
    let rec earliest i best =
      if i < 0 then best
      else if settled arr.(i) then earliest (i - 1) (Some arr.(i).Omega_spec.at_step)
      else best
    in
    earliest (len - 1) None

let run ?(seed = 0xFEEDL) ?rcand_phase ?ncand_phase ~n ~omega ~classes ~segments
    ~segment_steps () =
  let rt = Runtime.create ~seed ~n () in
  let handles =
    match omega with
    | Scenario.Omega_atomic -> (Tbwf_system.System.install_atomic rt).handles
    | Scenario.Omega_abortable policy ->
      (Tbwf_system.System.install_abortable rt ~policy ()).handles
    | Scenario.Omega_naive -> (Tbwf_system.System.install_naive rt).handles
  in
  spawn_drivers ?rcand_phase ?ncand_phase rt handles classes;
  List.iter (fun (pid, step) -> Runtime.crash_at rt ~pid ~step) classes.crashes;
  (* Timely processes take deterministic Every-claims: under a random
     schedule no process has a bounded gap in the limit (gaps grow like the
     logarithm of time), so spurious suspicions — and hence punishments and
     leadership changes — would recur forever. Claims cover every other
     step; the free steps go to awake flickerers, or back to the timely
     processes when everyone else sleeps. *)
  let timely_pids =
    List.filter (fun pid -> not (List.mem pid classes.untimely)) (List.init n Fun.id)
  in
  let k = max 1 (List.length timely_pids) in
  let pattern pid =
    match List.find_index (fun p -> p = pid) timely_pids with
    | Some i -> Policy.Every { period = 2 * k; offset = 2 * i }
    | None -> Policy.Flicker { active = 300; sleep = 600; growth = 1.5 }
  in
  let policy = Policy.of_patterns (List.init n (fun pid -> pid, pattern pid)) in
  let samples = ref [] in
  for _seg = 1 to segments do
    Runtime.run rt ~policy ~steps:segment_steps;
    samples :=
      Omega_spec.take_sample ~at_step:(Runtime.now rt) handles :: !samples
  done;
  let total_steps = Runtime.now rt in
  Runtime.stop rt;
  let samples = List.rev !samples in
  let crashed = List.map fst classes.crashes in
  let all_pids = List.init n Fun.id in
  let timely =
    List.filter
      (fun pid ->
        (not (List.mem pid classes.untimely)) && not (List.mem pid crashed))
      all_pids
  in
  let never_candidates =
    List.filter
      (fun pid ->
        (not (List.mem pid classes.pcands))
        && (not (List.mem pid classes.rcands))
        && not (List.mem pid classes.ncands))
      all_pids
  in
  let verdict =
    Omega_spec.check_election ~samples ~suffix:(max 2 (segments / 4))
      ~pcandidates:classes.pcands ~rcandidates:classes.rcands
      ~ncandidates:(classes.ncands @ never_candidates)
      ~timely ~crashed ~lagging:classes.untimely ()
  in
  let live_pcands =
    List.filter
      (fun pid ->
        (not (List.mem pid crashed)) && not (List.mem pid classes.untimely))
      classes.pcands
  in
  let stabilization_step =
    stabilization samples ~pcands:live_pcands ~elected:verdict.Omega_spec.elected
  in
  { verdict; stabilization_step; total_steps; samples }
