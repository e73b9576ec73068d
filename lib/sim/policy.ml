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
   caller's step goes backwards). For an [Every] leaf, [period] is its
   period and [next_claim] the next claiming step at or after the last
   step asked about. The
   slowing and flicker states are created on first use and outlive leaf
   changes. [pos] is the pid's index in the runnable array of the last
   rebuild, which breaks ties between claimants as the array order does,
   and [link] is the next pid in the pid's calendar bucket (-1 ends it). *)
type slot = {
  chain : pattern;
  mutable leaf : pattern;
  mutable from : int;
  mutable until : int;
  mutable next_claim : int;
  mutable period : int;
  mutable last_run : int;
  mutable slowing : slowing_state option;
  mutable flicker : flicker_state option;
  mutable pos : int;
  mutable link : int;
}

(* An empty range, so the first step asked about resolves the chain. *)
let fresh_slot chain =
  {
    chain;
    leaf = chain;
    from = max_int;
    until = min_int;
    next_claim = 0;
    period = 1;
    last_run = -1;
    slowing = None;
    flicker = None;
    pos = 0;
    link = -1;
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
      slot.period <- period;
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

(* The claim calendar of one [of_patterns] policy: the runnable set of
   the last rebuild split by leaf (each part in runnable order), and its
   [Every] pids filed in a wheel of power-of-two size by next claiming
   step. It stays valid for consecutive steps with the same runnable
   contents until [horizon], the first step at which some runnable
   slot's resolved range ends. *)
type calendar = {
  mutable slots : slot array;  (* one per pid, grown on first sight *)
  mutable held : int array;  (* the runnable contents of the last rebuild *)
  mutable held_len : int;  (* -1 before the first rebuild *)
  mutable last_step : int;
  mutable horizon : int;
  mutable every : int array;
  mutable n_every : int;
  mutable slowing_pids : int array;
  mutable n_slowing : int;
  mutable soft : int array;
  mutable n_soft : int;
  mutable weights : float array;  (* the soft draw's scratch *)
  mutable wheel : int array;  (* bucket heads, by [next_claim land mask] *)
  mutable mask : int;
}

let slot_of cal pid =
  let slots = cal.slots in
  if pid < Array.length slots then slots.(pid)
  else begin
    let len = Array.length slots in
    cal.slots <-
      Array.init
        (Int.max (pid + 1) (2 * len))
        (fun i -> if i < len then slots.(i) else fresh_slot unlisted);
    cal.slots.(pid)
  end

let file cal pid =
  let s = cal.slots.(pid) in
  let b = s.next_claim land cal.mask in
  s.link <- cal.wheel.(b);
  cal.wheel.(b) <- pid

let rec pow2_at_least k size = if size >= k then size else pow2_at_least k (2 * size)

(* Evaluate every runnable slot as a pick always did (resolve a chain
   whose range the step left, catch up an [Every] pid whose due step was
   overtaken or lies a period or more ahead, create slowing state on
   first sight), split the pids by leaf and file the [Every] pids. The
   wheel's size is the least power of two at or above the largest
   runnable period or twice the number of [Every] pids, whichever is
   smaller. In the first case a bucket holds exactly its step's
   claimants; in the second it may also hold pids due whole laps later,
   and a pick walks past them: half a visit per step at most on
   average, as each bucket is read once per lap of the wheel and there
   are at most half as many [Every] pids as buckets. Kept out of line:
   it runs only when the runnable set or the step sequence changes, and
   inlined it would put [first_claim]'s division into every pick. *)
let[@inline never] rebuild cal ~step ~runnable =
  let len = Array.length runnable in
  if Array.length cal.held < len then begin
    cal.held <- Array.make len 0;
    cal.every <- Array.make len 0;
    cal.slowing_pids <- Array.make len 0;
    cal.soft <- Array.make len 0;
    cal.weights <- Array.make len 0.0
  end;
  Array.blit runnable 0 cal.held 0 len;
  cal.held_len <- len;
  cal.horizon <- max_int;
  cal.n_every <- 0;
  cal.n_slowing <- 0;
  cal.n_soft <- 0;
  let max_period = ref 1 in
  for i = 0 to len - 1 do
    let p = runnable.(i) in
    let s = slot_of cal p in
    if step < s.from || step >= s.until then
      settle s step min_int max_int s.chain;
    if s.until < cal.horizon then cal.horizon <- s.until;
    s.pos <- i;
    match s.leaf with
    | Every { period; offset } ->
      let due = s.next_claim in
      if step > due || step <= due - period then
        s.next_claim <- first_claim ~period ~offset step;
      max_period := Int.max !max_period period;
      cal.every.(cal.n_every) <- p;
      cal.n_every <- cal.n_every + 1
    | Slowing { initial_gap; growth = _; burst } ->
      ignore (slowing_state s step initial_gap burst);
      cal.slowing_pids.(cal.n_slowing) <- p;
      cal.n_slowing <- cal.n_slowing + 1
    | Weighted _ | Flicker _ ->
      cal.soft.(cal.n_soft) <- p;
      cal.n_soft <- cal.n_soft + 1
    | Silent | Switch_at _ -> ()
  done;
  let size = pow2_at_least (Int.min !max_period (2 * cal.n_every)) 1 in
  if Array.length cal.wheel < size then cal.wheel <- Array.make size (-1)
  else Array.fill cal.wheel 0 size (-1);
  cal.mask <- size - 1;
  for i = 0 to cal.n_every - 1 do
    file cal cal.every.(i)
  done

(* The soft draw over [cal.soft], whose weights are the only nonzero ones
   of the runnable set: skipping a zero weight changes no float sum, so
   the draw is the weighted draw over the whole set, bit for bit,
   including its fall back to the set's last pid when float slack leaves
   nobody chosen. -1 (and no rng draw) when the total is <= 0. *)
let soft_draw cal ~step ~runnable ~rng =
  let n = cal.n_soft and ws = cal.weights in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let s = cal.slots.(cal.soft.(i)) in
    let w =
      match s.leaf with
      | Weighted w -> w
      | Flicker { active; sleep; growth } ->
        if flicker_awake s step active sleep growth then 1.0 else 0.0
      | Every _ | Slowing _ | Silent | Switch_at _ -> 0.0
    in
    ws.(i) <- w;
    total := !total +. w
  done;
  if !total <= 0.0 then -1
  else begin
    let target = Rng.float rng *. !total in
    let acc = ref 0.0 and chosen = ref (-1) and i = ref 0 in
    while !chosen < 0 && !i < n do
      acc := !acc +. ws.(!i);
      if !acc > target then chosen := cal.soft.(!i);
      incr i
    done;
    if !chosen < 0 then runnable.(Array.length runnable - 1) else !chosen
  end

(* The spare step's candidate: the least recently run [Every] pid, the
   first in runnable order on a tie; -1 if there is none. *)
let spare cal =
  let best = ref (-1) and best_run = ref 0 in
  for i = 0 to cal.n_every - 1 do
    let p = cal.every.(i) in
    let run = cal.slots.(p).last_run in
    if !best < 0 || run < !best_run then begin
      best := p;
      best_run := run
    end
  done;
  !best

(* Whether claimant [s] beats the best so far (-1: none yet): it ran less
   recently, or as recently and earlier in runnable order. *)
let[@inline] beats s ~best ~best_run ~best_pos =
  best < 0 || s.last_run < best_run || (s.last_run = best_run && s.pos < best_pos)

(* One pick. Hard claims come first: the [Every] pids filed under [step]
   (each is re-filed a period later whether it wins or not) and the
   [Slowing] pids whose due step has come; the least recently run
   claimant wins, the earlier in runnable order on a tie, so ties starve
   nobody. On an unclaimed step the soft pids are drawn by weight; if
   none is willing, the spare step goes to an off-claim [Every] pid (it
   is willing, merely not due), so runs made only of timely processes
   keep progressing, and if truly everyone is silent the step passes
   idle. test/division_guard.sh checks by this name that a pick does not
   divide. *)
let pick_patterns cal ~step ~runnable ~rng =
  let len = Array.length runnable in
  if len = 0 then -1
  else begin
    (* [held] holds at least [held_len] pids, so once the lengths agree
       the scan stays inside both arrays *)
    let held = cal.held in
    let i = ref 0 in
    if len = cal.held_len then
      while !i < len && Array.unsafe_get held !i = Array.unsafe_get runnable !i do
        incr i
      done;
    if !i < len || step <> cal.last_step + 1 || step >= cal.horizon then
      rebuild cal ~step ~runnable;
    cal.last_step <- step;
    let slots = cal.slots and wheel = cal.wheel and mask = cal.mask in
    let best = ref (-1) and best_run = ref 0 and best_pos = ref 0 in
    let b = step land mask in
    let p = ref wheel.(b) in
    if !p >= 0 then begin
      wheel.(b) <- -1;
      while !p >= 0 do
        let s = slots.(!p) in
        let next = s.link in
        if s.next_claim = step then begin
          s.next_claim <- step + s.period;
          if beats s ~best:!best ~best_run:!best_run ~best_pos:!best_pos then begin
            best := !p;
            best_run := s.last_run;
            best_pos := s.pos
          end
        end;
        let b = s.next_claim land mask in
        s.link <- wheel.(b);
        wheel.(b) <- !p;
        p := next
      done
    end;
    for i = 0 to cal.n_slowing - 1 do
      let q = cal.slowing_pids.(i) in
      let s = slots.(q) in
      match s.slowing with
      | Some st when step >= st.due ->
        if beats s ~best:!best ~best_run:!best_run ~best_pos:!best_pos then begin
          best := q;
          best_run := s.last_run;
          best_pos := s.pos
        end
      | Some _ | None -> ()
    done;
    if !best >= 0 then begin
      let s = slots.(!best) in
      s.last_run <- step;
      (match s.leaf, s.slowing with
      | Slowing { initial_gap = _; growth; burst }, Some st ->
        if st.burst_left > 1 then st.burst_left <- st.burst_left - 1
        else begin
          st.burst_left <- Int.max 1 burst;
          st.due <- step + int_of_float st.gap;
          st.gap <- st.gap *. growth
        end
      | (Every _ | Weighted _ | Flicker _ | Slowing _ | Silent | Switch_at _), _
        -> ());
      !best
    end
    else begin
      let chosen =
        if cal.n_soft = 0 then -1 else soft_draw cal ~step ~runnable ~rng
      in
      let chosen = if chosen >= 0 then chosen else spare cal in
      if chosen >= 0 then slots.(chosen).last_run <- step;
      chosen
    end
  end

let of_patterns assignments =
  List.iter (fun (_, p) -> validate p) assignments;
  let size =
    List.fold_left (fun acc (pid, _) -> Int.max acc (pid + 1)) 0 assignments
  in
  let chains = Array.make size unlisted in
  (* the last duplicate wins, and negative pids are ignored *)
  List.iter (fun (pid, p) -> if pid >= 0 then chains.(pid) <- p) assignments;
  let cal =
    {
      slots = Array.map fresh_slot chains;
      held = [||];
      held_len = -1;
      last_step = min_int;
      horizon = min_int;
      every = [||];
      n_every = 0;
      slowing_pids = [||];
      n_slowing = 0;
      soft = [||];
      n_soft = 0;
      weights = [||];
      wheel = [| -1 |];
      mask = 0;
    }
  in
  { next = pick_patterns cal; script_branching = ref [] }

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
