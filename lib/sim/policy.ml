type t = {
  next : step:int -> runnable:int array -> rng:Rng.t -> int;
  (* for of_script policies: observed branching factors, reverse order *)
  script_branching : int list ref;
}

let next t = t.next

let rec mem_from (pid : int) (runnable : int array) i =
  i < Array.length runnable && (runnable.(i) = pid || mem_from pid runnable (i + 1))

let mem pid runnable = mem_from pid runnable 0

let round_robin () =
  let last = ref (-1) in
  let next ~step:_ ~runnable ~rng:_ =
    let len = Array.length runnable in
    if len = 0 then -1
    else begin
      (* smallest pid strictly greater than [!last], wrapping around:
         first match in array order (the runtime hands pids sorted) *)
      let i = ref 0 in
      while !i < len && runnable.(!i) <= !last do incr i done;
      let chosen = if !i < len then runnable.(!i) else runnable.(0) in
      last := chosen;
      chosen
    end
  in
  { next; script_branching = ref [] }

(* A reusable scratch for the soft draw, sized to the largest [runnable]
   seen so far. *)
let scratch_for scratch len =
  if Array.length !scratch < len then scratch := Array.make len 0.0;
  !scratch

(* The weighted draw over [runnable.(0 .. len-1)], where [weights.(i)] is
   the weight of [runnable.(i)]: sum the weights left to right; unless the
   total is <= 0 (then -1, and no draw), draw a target in [0, total) and
   return the first candidate whose running sum exceeds it, falling back
   to the last candidate when float slack leaves nobody chosen. *)
let draw rng runnable (weights : float array) len =
  let total = ref 0.0 in
  for i = 0 to len - 1 do
    total := !total +. weights.(i)
  done;
  if !total <= 0.0 then -1
  else begin
    let target = Rng.float rng *. !total in
    let acc = ref 0.0 and chosen = ref (-1) and i = ref 0 in
    while !chosen < 0 && !i < len do
      acc := !acc +. weights.(!i);
      if !acc > target then chosen := runnable.(!i);
      incr i
    done;
    if !chosen < 0 then runnable.(len - 1) else !chosen
  end

type pattern =
  | Every of { period : int; offset : int }
  | Weighted of float
  | Flicker of { active : int; sleep : int; growth : float }
  | Slowing of { initial_gap : int; growth : float; burst : int }
  | Silent
  | Switch_at of int * pattern * pattern

(* Mutable flicker phase tracking, one per pid. *)
type flicker_state = {
  mutable awake : bool;
  mutable phase_end : int;  (* first step of the next phase *)
  mutable sleep_len : float;
}

type slowing_state = {
  mutable due : int;
  mutable gap : float;
  mutable burst_left : int;
}

let rec validate = function
  | Every { period; _ } when period < 1 ->
    invalid_arg (Fmt.str "Policy.of_patterns: Every period %d < 1" period)
  | Flicker { active; _ } when active < 1 ->
    invalid_arg (Fmt.str "Policy.of_patterns: Flicker active %d < 1" active)
  | Switch_at (_, before, after) ->
    validate before;
    validate after
  | Every _ | Weighted _ | Flicker _ | Slowing _ | Silent -> ()

let unlisted = Weighted 1.0

(* Everything a pick needs about one pid. [leaf] is what [chain] resolves
   to at every step in [from, until), so the chain is walked again only
   when a step leaves that range (at a [Switch_at] boundary, or when a
   caller's step goes backwards). For an [Every] leaf, [next_claim] is
   the next claiming step at or after the last step asked about. The
   slowing and flicker states are created on first use and outlive leaf
   changes. *)
type slot = {
  chain : pattern;
  mutable leaf : pattern;
  mutable from : int;
  mutable until : int;
  mutable next_claim : int;
  mutable last_run : int;
  mutable slowing : slowing_state option;
  mutable flicker : flicker_state option;
}

(* An empty range, so the first step asked about resolves the chain. *)
let fresh_slot chain =
  {
    chain;
    leaf = chain;
    from = max_int;
    until = min_int;
    next_claim = 0;
    last_run = -1;
    slowing = None;
    flicker = None;
  }

(* The least step >= [step] that is congruent to [offset] mod [period]. *)
let first_claim ~period ~offset step =
  let r = (offset - step) mod period in
  if r < 0 then step + r + period else step + r

(* Resolve [pattern] at [step], narrowing [from, until) to the steps that
   resolve to the same leaf. *)
let rec settle slot step from until = function
  | Switch_at (at, before, after) ->
    if step < at then settle slot step from (Int.min until at) before
    else settle slot step (Int.max from at) until after
  | (Every _ | Weighted _ | Flicker _ | Slowing _ | Silent) as leaf ->
    slot.leaf <- leaf;
    slot.from <- from;
    slot.until <- until;
    (match leaf with
    | Every { period; offset } ->
      slot.next_claim <- first_claim ~period ~offset step
    | Weighted _ | Flicker _ | Slowing _ | Silent | Switch_at _ -> ())

let slowing_state slot step initial_gap burst =
  match slot.slowing with
  | Some st -> st
  | None ->
    let st = { due = step; gap = float_of_int initial_gap; burst_left = burst } in
    slot.slowing <- Some st;
    st

let flicker_awake slot step active sleep growth =
  let st =
    match slot.flicker with
    | Some st -> st
    | None ->
      let st = { awake = true; phase_end = step + active; sleep_len = float_of_int sleep } in
      slot.flicker <- Some st;
      st
  in
  while step >= st.phase_end do
    if st.awake then begin
      st.awake <- false;
      st.phase_end <- st.phase_end + int_of_float st.sleep_len;
      st.sleep_len <- st.sleep_len *. growth
    end
    else begin
      st.awake <- true;
      st.phase_end <- st.phase_end + active
    end
  done;
  st.awake

(* One slot per pid, in a table that grows when a pid beyond it is first
   asked about (an unlisted pid, e.g. a late joiner). A pick reads the
   slot of each runnable pid once, allocates nothing but a soft draw's
   float, and draws only when some runnable pid is soft. *)
let of_patterns assignments =
  List.iter (fun (_, p) -> validate p) assignments;
  let size =
    List.fold_left (fun acc (pid, _) -> Int.max acc (pid + 1)) 0 assignments
  in
  let chains = Array.make size unlisted in
  (* the last duplicate wins, and negative pids are ignored *)
  List.iter (fun (pid, p) -> if pid >= 0 then chains.(pid) <- p) assignments;
  let slots = ref (Array.map fresh_slot chains) in
  let grow pid =
    let old = !slots in
    let len = Array.length old in
    slots :=
      Array.init
        (Int.max (pid + 1) (2 * len))
        (fun i -> if i < len then old.(i) else fresh_slot unlisted);
    !slots.(pid)
  in
  let scratch = ref [||] in
  let next ~step ~runnable ~rng =
    let len = Array.length runnable in
    if len = 0 then -1
    else begin
      (* Hard claims: every pid's claim is evaluated (creating slowing
         state on first sight); the first claimant with the strictly
         least recent run wins, so ties starve nobody. The same walk
         notes the spare step's candidate (the least recently run [Every]
         pid) and whether any soft pid is runnable. *)
      let best = ref (-1) and best_run = ref 0 in
      let spare = ref (-1) and spare_run = ref 0 in
      let soft = ref false in
      for i = 0 to len - 1 do
        let p = runnable.(i) in
        let s = if p < Array.length !slots then !slots.(p) else grow p in
        if step < s.from || step >= s.until then
          settle s step min_int max_int s.chain;
        match s.leaf with
        | Every { period; offset } ->
          let due = s.next_claim in
          (* overtaken (the pid was not asked about at its due step), or
             a step that went backwards *)
          if step > due || step <= due - period then
            s.next_claim <- first_claim ~period ~offset step;
          if step = s.next_claim then begin
            s.next_claim <- step + period;
            if !best < 0 || s.last_run < !best_run then begin
              best := p;
              best_run := s.last_run
            end
          end
          else if !spare < 0 || s.last_run < !spare_run then begin
            spare := p;
            spare_run := s.last_run
          end
        | Slowing { initial_gap; growth = _; burst } ->
          if step >= (slowing_state s step initial_gap burst).due then
            if !best < 0 || s.last_run < !best_run then begin
              best := p;
              best_run := s.last_run
            end
        | Weighted _ | Flicker _ -> soft := true
        | Silent | Switch_at _ -> ()
      done;
      if !best >= 0 then begin
        let s = !slots.(!best) in
        s.last_run <- step;
        (match s.leaf with
        | Slowing { initial_gap; growth; burst } ->
          let st = slowing_state s step initial_gap burst in
          if st.burst_left > 1 then st.burst_left <- st.burst_left - 1
          else begin
            st.burst_left <- Int.max 1 burst;
            st.due <- step + int_of_float st.gap;
            st.gap <- st.gap *. growth
          end
        | Every _ | Weighted _ | Flicker _ | Silent | Switch_at _ -> ());
        !best
      end
      else begin
        (* Soft participants, drawn by weight. With no soft pid runnable
           every weight would be 0, and the draw would return -1 without
           touching the rng, so it is skipped. *)
        let chosen =
          if not !soft then -1
          else begin
            let ws = scratch_for scratch len in
            for i = 0 to len - 1 do
              let s = !slots.(runnable.(i)) in
              ws.(i) <-
                (match s.leaf with
                | Weighted w -> w
                | Flicker { active; sleep; growth } ->
                  if flicker_awake s step active sleep growth then 1.0 else 0.0
                | Every _ | Slowing _ | Silent | Switch_at _ -> 0.0)
            done;
            draw rng runnable ws len
          end
        in
        (* No soft participant this step: give the spare step to an
           off-claim [Every] process (it is willing, merely not due), so
           runs made only of timely processes keep progressing; if truly
           everyone is silent, let the step pass idle. *)
        let chosen = if chosen >= 0 then chosen else !spare in
        if chosen >= 0 then !slots.(chosen).last_run <- step;
        chosen
      end
    end
  in
  { next; script_branching = ref [] }

(* Weighted-only patterns never claim a step, so every pick is the soft
   draw over the listed weights (1.0 for unlisted pids). *)
let weighted weights =
  of_patterns
    (List.map (fun (pid, w) -> pid, Weighted w) (Array.to_list weights))

let solo_after ~n ~pid ~step =
  let assignments =
    List.init n (fun p ->
        if p = pid then p, Weighted 1.0
        else p, Switch_at (step, Weighted 1.0, Silent))
  in
  let base = of_patterns assignments in
  (* After the switch point, only [pid] must run, even as the idle fallback. *)
  let next ~step:s ~runnable ~rng =
    if s >= step then (if mem pid runnable then pid else -1)
    else next base ~step:s ~runnable ~rng
  in
  { next; script_branching = ref [] }

let of_script script =
  let remaining = ref script in
  let branching = ref [] in
  let next ~step:_ ~runnable ~rng:_ =
    if Array.length runnable = 0 then -1
    else
      match !remaining with
      | [] -> -1
      | choice :: rest ->
        remaining := rest;
        branching := Array.length runnable :: !branching;
        runnable.(choice mod Array.length runnable)
  in
  { next; script_branching = branching }

let branching_of_script t = List.rev !(t.script_branching)

exception
  Replay_mismatch of { step : int; pid : int; runnable : int array }

(* Shared core of the replay family. [on_mismatch] decides what happens when
   a recorded non-idle pid is not runnable at its step: the lenient variant
   lets the step pass idle (so shrunk/foreign schedules stay executable),
   the strict one raises. *)
let replay_with ~on_mismatch pids =
  let remaining = ref pids in
  let next ~step ~runnable ~rng:_ =
    match !remaining with
    | [] -> -1
    | pid :: rest ->
      remaining := rest;
      if pid >= 0 && mem pid runnable then pid
      else begin
        if pid >= 0 then on_mismatch ~step ~pid ~runnable;
        -1 (* recorded idle step, or a diverging replay: stay aligned *)
      end
  in
  { next; script_branching = ref [] }

let replay pids =
  replay_with ~on_mismatch:(fun ~step:_ ~pid:_ ~runnable:_ -> ()) pids

let replay_strict pids =
  replay_with
    ~on_mismatch:(fun ~step ~pid ~runnable ->
      raise (Replay_mismatch { step; pid; runnable }))
    pids
