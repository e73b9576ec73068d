open Tbwf_sim

let degraded_policy ~n ~timely =
  let k = max 1 (List.length timely) in
  (* Burst sized so each visit yields at least one heartbeat write even
     with a full monitor mesh multiplexed onto the process. *)
  let untimely = Policy.Slowing { initial_gap = 60; growth = 1.15; burst = 8 * n } in
  let pattern pid =
    (* A strict rotation: every step is claimed by some timely process, so
       the interleaving is perfectly adversarial for unboosted retries. *)
    match List.find_index (fun p -> p = pid) timely with
    | Some i -> Policy.Every { period = k; offset = i }
    | None -> untimely
  in
  Policy.of_patterns (List.init n (fun pid -> pid, pattern pid))

let degraded_prediction ~n ~timely ~from =
  {
    Tbwf_check.Degradation.pred_n = n;
    pred_timely = timely;
    pred_from = from;
    pred_bound = 4 * n;
    pred_emergent = None;
  }
