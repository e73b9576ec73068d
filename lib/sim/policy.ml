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

(* Growable per-pid tables: a read past the end sees the table's default,
   a write past it first grows the table, filling new slots with [fill]. *)
let set table pid fill v =
  if pid >= Array.length !table then begin
    let old = !table in
    let bigger = Array.make (max (pid + 1) (2 * Array.length old)) fill in
    Array.blit old 0 bigger 0 (Array.length old);
    table := bigger
  end;
  !table.(pid) <- v

(* The table of an assignment list: the last duplicate wins, and negative
   pids are ignored. *)
let table_of assignments fill =
  let table = ref [||] in
  List.iter (fun (pid, v) -> if pid >= 0 then set table pid fill v) assignments;
  !table

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

let rec resolve step = function
  | Switch_at (s, before, after) ->
    if step < s then resolve step before else resolve step after
  | (Every _ | Weighted _ | Flicker _ | Slowing _ | Silent) as p -> p

let unlisted = Weighted 1.0

(* Everything [next] touches is a flat array indexed by pid: the compiled
   patterns, when each pid last ran, and the lazily created slowing and
   flicker states. A step resolves each runnable pid's pattern (walking its
   [Switch_at] chain) and allocates nothing but a soft draw's float. *)
let of_patterns assignments =
  List.iter (fun (_, p) -> validate p) assignments;
  let patterns = table_of assignments unlisted in
  let pattern_at pid step =
    resolve step (if pid < Array.length patterns then patterns.(pid) else unlisted)
  in
  let size = Array.length patterns in
  let last_run = ref (Array.make size (-1)) in
  let slowers : slowing_state option array ref = ref (Array.make size None) in
  let flickers : flicker_state option array ref = ref (Array.make size None) in
  let scratch = ref [||] in
  let ran_at pid =
    let a = !last_run in
    if pid < Array.length a then a.(pid) else -1
  in
  let ran pid step = set last_run pid (-1) step in
  let slowing_state pid step initial_gap burst =
    match if pid < Array.length !slowers then !slowers.(pid) else None with
    | Some st -> st
    | None ->
      let st =
        { due = step; gap = float_of_int initial_gap; burst_left = burst }
      in
      set slowers pid None (Some st);
      st
  in
  let flicker_awake pid step active sleep growth =
    let st =
      match if pid < Array.length !flickers then !flickers.(pid) else None with
      | Some st -> st
      | None ->
        let st = { awake = true; phase_end = step + active; sleep_len = float_of_int sleep } in
        set flickers pid None (Some st);
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
  in
  let next ~step ~runnable ~rng =
    let len = Array.length runnable in
    if len = 0 then -1
    else begin
      (* Hard claims: every pid's claim is evaluated (creating slowing
         state on first sight); the first claimant with the strictly
         least recent run wins, so ties starve nobody. *)
      let best = ref (-1) in
      for i = 0 to len - 1 do
        let p = runnable.(i) in
        let claims =
          match pattern_at p step with
          | Every { period; offset } -> (step - offset) mod period = 0
          | Slowing { initial_gap; growth = _; burst } ->
            step >= (slowing_state p step initial_gap burst).due
          | Weighted _ | Flicker _ | Silent | Switch_at _ -> false
        in
        if claims && (!best < 0 || ran_at p < ran_at !best) then best := p
      done;
      if !best >= 0 then begin
        let p = !best in
        ran p step;
        (match pattern_at p step with
        | Slowing { initial_gap; growth; burst } ->
          let st = slowing_state p step initial_gap burst in
          if st.burst_left > 1 then st.burst_left <- st.burst_left - 1
          else begin
            st.burst_left <- max 1 burst;
            st.due <- step + int_of_float st.gap;
            st.gap <- st.gap *. growth
          end
        | Every _ | Weighted _ | Flicker _ | Silent | Switch_at _ -> ());
        p
      end
      else begin
        (* Soft participants, drawn by weight. *)
        let ws = scratch_for scratch len in
        for i = 0 to len - 1 do
          let p = runnable.(i) in
          ws.(i) <-
            (match pattern_at p step with
            | Weighted w -> w
            | Flicker { active; sleep; growth } ->
              if flicker_awake p step active sleep growth then 1.0 else 0.0
            | Every _ | Slowing _ | Silent -> 0.0
            | Switch_at _ -> assert false)
        done;
        let chosen = draw rng runnable ws len in
        if chosen >= 0 then begin
          ran chosen step;
          chosen
        end
        else begin
          (* No soft participant this step. Give the spare step to an
             off-claim [Every] process (it is willing, merely not due), so
             runs made only of timely processes keep progressing; if truly
             everyone is silent, let the step pass idle. *)
          for i = 0 to len - 1 do
            let p = runnable.(i) in
            match pattern_at p step with
            | Every _ -> if !best < 0 || ran_at p < ran_at !best then best := p
            | Weighted _ | Flicker _ | Slowing _ | Silent | Switch_at _ -> ()
          done;
          if !best < 0 then -1
          else begin
            ran !best step;
            !best
          end
        end
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
