open Tbwf_sim

type view = Leader of int | No_leader

let pp_view fmt = function
  | Leader p -> Fmt.pf fmt "leader(%d)" p
  | No_leader -> Fmt.string fmt "?"

let equal_view a b =
  match a, b with
  | Leader x, Leader y -> x = y
  | No_leader, No_leader -> true
  | (Leader _ | No_leader), _ -> false

type handle = { pid : int; candidate : bool ref; leader : view ref }

(* [equal_view v (Leader p)] without building the view: a parked wait
   tests it once per step. *)
let leads v (p : int) = match v with Leader l -> l = p | No_leader -> false

let make_handle ~pid = { pid; candidate = ref false; leader = ref No_leader }

(* Update [h]'s leader view, emitting a telemetry signal on actual changes.
   All Ω∆ implementations route their [leader :=] assignments through this
   so leader churn is observable with zero cost when telemetry is off. *)
let set_view rt h v =
  if not (equal_view !(h.leader) v) then begin
    if Runtime.telemetry_active rt then
      Runtime.signal rt ~pid:h.pid
        (Sink.Leader_view
           { leader = (match v with Leader l -> Some l | No_leader -> None) });
    h.leader := v
  end

(* The tuple order without building the tuples. *)
let precedes (counter : int array) q l =
  counter.(q) < counter.(l) || (counter.(q) = counter.(l) && q < l)

let canonical_join h =
  Runtime.await (fun () -> not (leads !(h.leader) h.pid));
  h.candidate := true

let leave h = h.candidate := false

type sample = {
  at_step : int;
  views : view array;
  candidacies : bool array;
}

let take_sample ~at_step handles =
  {
    at_step;
    views = Array.map (fun h -> !(h.leader)) handles;
    candidacies = Array.map (fun h -> !(h.candidate)) handles;
  }

type verdict = { elected : int option; violations : string list }

let last_n n samples =
  let len = List.length samples in
  if len <= n then samples else List.filteri (fun i _ -> i >= len - n) samples

let check_election ~samples ~suffix ~pcandidates ~rcandidates ~ncandidates
    ~timely ~crashed ?(lagging = []) () =
  let tail = last_n suffix samples in
  let violations = ref [] in
  let violation fmt = Fmt.kstr (fun s -> violations := s :: !violations) fmt in
  if tail = [] then violation "no samples to check";
  let throughout pred = List.for_all pred tail in
  let settling p = not (List.mem p lagging) in
  let live_of class_members =
    List.filter
      (fun p -> (not (List.mem p crashed)) && settling p)
      class_members
  in
  let live_p = live_of pcandidates in
  let live_r = live_of rcandidates in
  let live_n = live_of ncandidates in
  let timely_pcands = List.filter (fun p -> List.mem p timely) live_p in
  (* Property 2 holds unconditionally. *)
  List.iter
    (fun p ->
      if not (throughout (fun s -> equal_view s.views.(p) No_leader)) then
        violation "property 2: ncandidate %d does not settle on ?" p)
    live_n;
  let elected =
    if timely_pcands = [] then None
    else begin
      (* Find the ℓ satisfying 1(a): stable self-leadership, timely, and a
         permanent or repeated candidate. *)
      let stable_self ell =
        throughout (fun s -> equal_view s.views.(ell) (Leader ell))
      in
      let eligible =
        List.filter (fun ell -> List.mem ell timely) (live_p @ live_r)
      in
      match List.filter stable_self eligible with
      | [] ->
        violation
          "property 1(a): no timely candidate stably elects itself (timely \
           pcandidates: %a)"
          Fmt.(list ~sep:comma int)
          timely_pcands;
        None
      | [ ell ] -> Some ell
      | ells ->
        violation "multiple stable self-leaders: %a"
          Fmt.(list ~sep:comma int)
          ells;
        None
    end
  in
  (match elected with
  | None -> ()
  | Some ell ->
    List.iter
      (fun p ->
        if not (throughout (fun s -> equal_view s.views.(p) (Leader ell)))
        then violation "property 1(b): pcandidate %d does not settle on %d" p ell)
      live_p;
    List.iter
      (fun p ->
        let ok s =
          equal_view s.views.(p) (Leader ell)
          || equal_view s.views.(p) No_leader
        in
        if not (throughout ok) then
          violation "property 1(c): rcandidate %d leaves {?, leader %d}" p ell)
      live_r);
  { elected; violations = List.rev !violations }
