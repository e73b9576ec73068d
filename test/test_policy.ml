open Tbwf_sim

(* The reference model: [Policy.weighted] and [Policy.of_patterns] as they
   were when every lookup went through a [Hashtbl] and every draw through a
   closure fold, copied unchanged apart from returning the bare [next]
   function. The flat-table implementation must make exactly the same
   choices and the same rng draws. *)
module Oracle = struct
  open Policy

  let weighted_pick rng candidates weight_of =
    let total = Array.fold_left (fun acc p -> acc +. weight_of p) 0.0 candidates in
    if total <= 0.0 then None
    else begin
      let target = Rng.float rng *. total in
      let acc = ref 0.0 in
      let chosen = ref None in
      Array.iter
        (fun p ->
          if !chosen = None then begin
            acc := !acc +. weight_of p;
            if !acc > target then chosen := Some p
          end)
        candidates;
      (* floating-point slack: fall back to the last candidate *)
      match !chosen with
      | Some _ as c -> c
      | None -> Some candidates.(Array.length candidates - 1)
    end

  let weighted weights =
    let table = Hashtbl.create 16 in
    Array.iter (fun (pid, w) -> Hashtbl.replace table pid w) weights;
    let weight_of p = Option.value (Hashtbl.find_opt table p) ~default:1.0 in
    let next ~step:_ ~runnable ~rng =
      if Array.length runnable = 0 then None else weighted_pick rng runnable weight_of
    in
    next

  (* Mutable flicker phase tracking, keyed by pid. *)
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

  let of_patterns assignments =
    let patterns = Hashtbl.create 16 in
    List.iter (fun (pid, p) -> Hashtbl.replace patterns pid p) assignments;
    let flickers : (int, flicker_state) Hashtbl.t = Hashtbl.create 16 in
    let slowers : (int, slowing_state) Hashtbl.t = Hashtbl.create 16 in
    let last_run = Hashtbl.create 16 in
    let rec resolve step = function
      | Switch_at (s, before, after) ->
        if step < s then resolve step before else resolve step after
      | (Every _ | Weighted _ | Flicker _ | Slowing _ | Silent) as p -> p
    in
    let slowing_state pid step initial_gap burst =
      match Hashtbl.find_opt slowers pid with
      | Some st -> st
      | None ->
        let st =
          { due = step; gap = float_of_int initial_gap; burst_left = burst }
        in
        Hashtbl.replace slowers pid st;
        st
    in
    let flicker_awake pid step active sleep growth =
      let st =
        match Hashtbl.find_opt flickers pid with
        | Some st -> st
        | None ->
          let st = { awake = true; phase_end = step + active; sleep_len = float_of_int sleep } in
          Hashtbl.replace flickers pid st;
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
      if Array.length runnable = 0 then None
      else begin
        let pattern_of p =
          resolve step
            (Option.value (Hashtbl.find_opt patterns p) ~default:(Weighted 1.0))
        in
        let claims =
          Array.to_list runnable
          |> List.filter (fun p ->
                 match pattern_of p with
                 | Every { period; offset } -> (step - offset) mod period = 0
                 | Slowing { initial_gap; growth = _; burst } ->
                   step >= (slowing_state p step initial_gap burst).due
                 | Weighted _ | Flicker _ | Silent | Switch_at _ -> false)
        in
        match claims with
        | _ :: _ ->
          (* serve the least-recently-run claimant so ties starve nobody *)
          let ran_at p = Option.value (Hashtbl.find_opt last_run p) ~default:(-1) in
          let best =
            List.fold_left
              (fun best p ->
                match best with
                | None -> Some p
                | Some b -> if ran_at p < ran_at b then Some p else best)
              None claims
          in
          Option.iter
            (fun p ->
              Hashtbl.replace last_run p step;
              match pattern_of p with
              | Slowing { initial_gap; growth; burst } ->
                let st = slowing_state p step initial_gap burst in
                if st.burst_left > 1 then st.burst_left <- st.burst_left - 1
                else begin
                  st.burst_left <- max 1 burst;
                  st.due <- step + int_of_float st.gap;
                  st.gap <- st.gap *. growth
                end
              | Every _ | Weighted _ | Flicker _ | Silent | Switch_at _ -> ())
            best;
          best
        | [] ->
          let weight_of p =
            match pattern_of p with
            | Weighted w -> w
            | Flicker { active; sleep; growth } ->
              if flicker_awake p step active sleep growth then 1.0 else 0.0
            | Every _ | Slowing _ | Silent -> 0.0
            | Switch_at _ -> assert false
          in
          let chosen = weighted_pick rng runnable weight_of in
          (match chosen with
          | Some p -> Hashtbl.replace last_run p step; Some p
          | None ->
            (* No soft participant this step. Give the spare step to an
               off-claim [Every] process (it is willing, merely not due), so
               runs made only of timely processes keep progressing; if truly
               everyone is silent, let the step pass idle. *)
            let willing =
              Array.to_list runnable
              |> List.filter (fun p ->
                     match pattern_of p with
                     | Every _ -> true
                     | Weighted _ | Flicker _ | Slowing _ | Silent | Switch_at _ ->
                       false)
            in
            let ran_at p = Option.value (Hashtbl.find_opt last_run p) ~default:(-1) in
            let best =
              List.fold_left
                (fun best p ->
                  match best with
                  | None -> Some p
                  | Some b -> if ran_at p < ran_at b then Some p else best)
                None willing
            in
            Option.iter (fun p -> Hashtbl.replace last_run p step) best;
            best)
        end
    in
    next
end

let run_policy policy ~runnable ~steps =
  let rng = Rng.create 17L in
  let arr = Array.of_list runnable in
  List.init steps (fun step -> Policy.next policy ~step ~runnable:arr ~rng)

let test_round_robin_fair () =
  let choices = run_policy (Policy.round_robin ()) ~runnable:[ 0; 1; 2 ] ~steps:9 in
  Alcotest.(check (list int))
    "perfect rotation"
    [ 0; 1; 2; 0; 1; 2; 0; 1; 2 ]
    choices

let test_round_robin_skips_missing () =
  let policy = Policy.round_robin () in
  let rng = Rng.create 1L in
  let c1 = Policy.next policy ~step:0 ~runnable:[| 0; 1; 2 |] ~rng in
  let c2 = Policy.next policy ~step:1 ~runnable:[| 0; 2 |] ~rng in
  Alcotest.(check int) "starts at 0" 0 c1;
  Alcotest.(check int) "skips crashed 1" 2 c2

let test_weighted_respects_weights () =
  let policy = Policy.weighted [| 0, 10.0; 1, 1.0 |] in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:5_000 in
  let count pid = List.length (List.filter (fun c -> c = pid) choices) in
  Alcotest.(check bool) "heavy pid dominates" true (count 0 > 3 * count 1);
  Alcotest.(check bool) "light pid still runs" true (count 1 > 0)

let test_every_claims () =
  let policy =
    Policy.of_patterns
      [ 0, Policy.Every { period = 3; offset = 0 }; 1, Policy.Weighted 1.0 ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:30 in
  List.iteri
    (fun step choice ->
      if step mod 3 = 0 then
        Alcotest.(check int) (Fmt.str "claim at %d" step) 0 choice)
    choices

let test_every_gap_bounded () =
  let policy =
    Policy.of_patterns
      [
        0, Policy.Every { period = 4; offset = 0 };
        1, Policy.Weighted 1.0;
        2, Policy.Weighted 1.0;
      ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1; 2 ] ~steps:2_000 in
  let max_gap = ref 0 and current = ref 0 in
  List.iter
    (fun c ->
      if c = 0 then begin
        if !current > !max_gap then max_gap := !current;
        current := 0
      end
      else incr current)
    choices;
  Alcotest.(check bool) "gap bounded by period" true (!max_gap <= 4)

let test_flicker_gaps_grow () =
  let policy =
    Policy.of_patterns
      [
        0, Policy.Flicker { active = 10; sleep = 20; growth = 2.0 };
        1, Policy.Weighted 1.0;
      ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:3_000 in
  (* Collect gaps between pid-0 steps; the largest must dwarf the first. *)
  let gaps = ref [] and current = ref 0 and seen = ref false in
  List.iter
    (fun c ->
      if c = 0 then begin
        if !seen && !current > 0 then gaps := !current :: !gaps;
        seen := true;
        current := 0
      end
      else incr current)
    choices;
  let gaps = !gaps in
  Alcotest.(check bool) "has gaps" true (List.length gaps > 2);
  let max_gap = List.fold_left max 0 gaps in
  Alcotest.(check bool) "sleep gaps grew past 100" true (max_gap > 100)

let test_slowing_gaps_grow () =
  let policy =
    Policy.of_patterns
      [
        0, Policy.Slowing { initial_gap = 5; growth = 1.5; burst = 1 };
        1, Policy.Weighted 1.0;
      ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:3_000 in
  let steps_of_0 =
    List.filteri (fun _ c -> c = 0) choices |> List.length
  in
  (* With gaps 5, 7.5, 11.25, ... only ~log-many steps fit in 3000. *)
  Alcotest.(check bool) "pid 0 took a few steps" true (steps_of_0 >= 3);
  Alcotest.(check bool) "pid 0 decelerated" true (steps_of_0 < 30)

let test_slowing_burst () =
  let policy =
    Policy.of_patterns
      [ 0, Policy.Slowing { initial_gap = 100; growth = 2.0; burst = 5 } ]
  in
  (* Alone, the slowing process gets its whole burst in consecutive steps. *)
  let choices = run_policy policy ~runnable:[ 0 ] ~steps:20 in
  let first_five = List.filteri (fun i _ -> i < 5) choices in
  Alcotest.(check (list int)) "first burst served" [ 0; 0; 0; 0; 0 ] first_five;
  Alcotest.(check int) "then idle" (-1) (List.nth choices 5)

let test_silent_never_runs () =
  let policy =
    Policy.of_patterns [ 0, Policy.Silent; 1, Policy.Weighted 1.0 ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:500 in
  Alcotest.(check bool) "silent pid never scheduled" true
    (List.for_all (fun c -> c <> 0) choices)

let test_switch_at () =
  let policy =
    Policy.of_patterns
      [
        0, Policy.Switch_at (100, Policy.Weighted 1.0, Policy.Silent);
        1, Policy.Weighted 1.0;
      ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:400 in
  let before = List.filteri (fun i c -> i < 100 && c = 0) choices in
  let after = List.filteri (fun i c -> i >= 100 && c = 0) choices in
  Alcotest.(check bool) "ran before switch" true (List.length before > 0);
  Alcotest.(check (list int)) "silent after switch" [] after

let test_replay_lenient_vs_strict () =
  let rng = Rng.create 3L in
  (* Recorded pid 1 is not runnable at step 1: lenient passes idle, strict
     raises. *)
  let sched = [ 0; 1; 0 ] in
  let lenient = Policy.replay sched in
  Alcotest.(check int) "lenient step 0" 0
    (Policy.next lenient ~step:0 ~runnable:[| 0; 2 |] ~rng);
  Alcotest.(check int) "lenient mismatch passes idle" (-1)
    (Policy.next lenient ~step:1 ~runnable:[| 0; 2 |] ~rng);
  let strict = Policy.replay_strict sched in
  Alcotest.(check int) "strict step 0" 0
    (Policy.next strict ~step:0 ~runnable:[| 0; 2 |] ~rng);
  (match Policy.next strict ~step:1 ~runnable:[| 0; 2 |] ~rng with
  | exception Policy.Replay_mismatch { step; pid; runnable } ->
    Alcotest.(check int) "mismatch step" 1 step;
    Alcotest.(check int) "mismatch pid" 1 pid;
    Alcotest.(check (array int)) "mismatch runnable" [| 0; 2 |] runnable
  | _ -> Alcotest.fail "strict replay should raise on drift")

let test_replay_strict_faithful () =
  (* On the scenario it was recorded from, strict replay never raises and
     recorded idle steps stay idle. *)
  let rng = Rng.create 4L in
  let sched = [ 0; -1; 1; 0 ] in
  let strict = Policy.replay_strict sched in
  let choices =
    List.mapi
      (fun step _ -> Policy.next strict ~step ~runnable:[| 0; 1 |] ~rng)
      sched
  in
  Alcotest.(check (list int)) "faithful replay" [ 0; -1; 1; 0 ] choices;
  Alcotest.(check int) "exhausted schedule idles" (-1)
    (Policy.next strict ~step:4 ~runnable:[| 0; 1 |] ~rng)

let test_solo_after () =
  let policy = Policy.solo_after ~n:3 ~pid:2 ~step:50 in
  let choices = run_policy policy ~runnable:[ 0; 1; 2 ] ~steps:200 in
  let late = List.filteri (fun i _ -> i >= 50) choices in
  Alcotest.(check bool) "only solo pid after switch" true
    (List.for_all (fun c -> c = 2) late);
  let early_others =
    List.filteri (fun i c -> i < 50 && (c = 0 || c = 1)) choices
  in
  Alcotest.(check bool) "others ran before switch" true
    (List.length early_others > 0)

(* --- equivalence with the reference model -------------------------------- *)

let rec gen_pattern g depth =
  match Rng.int g (if depth > 0 then 6 else 5) with
  | 0 -> Policy.Every { period = 1 + Rng.int g 6; offset = Rng.int g 12 - 3 }
  | 1 ->
    Policy.Weighted
      (match Rng.int g 4 with
      | 0 -> 0.0
      | 1 -> 1.0
      | 2 -> 0.25
      | _ -> Rng.float g *. 3.0)
  | 2 ->
    Policy.Flicker
      { active = 1 + Rng.int g 12; sleep = Rng.int g 30;
        growth = 0.5 +. Rng.float g *. 1.5 }
  | 3 ->
    Policy.Slowing
      { initial_gap = Rng.int g 20; growth = 0.5 +. Rng.float g *. 1.5;
        burst = Rng.int g 5 }
  | 4 -> Policy.Silent
  | _ ->
    Policy.Switch_at
      (Rng.int g 2_000, gen_pattern g (depth - 1), gen_pattern g (depth - 1))

(* Pids from -2 to 8, with duplicates; half the time every pid of the
   universe is listed first, so no unlisted [Weighted 1.0] pid hides the
   idle and willing-fallback paths. *)
let gen_assignments g ~universe =
  let listed =
    if Rng.bool g 0.5 then List.init universe (fun p -> p, gen_pattern g 3) else []
  in
  listed @ List.init (Rng.int g 11) (fun _ -> Rng.int g 11 - 2, gen_pattern g 3)

(* A sorted random subset of [0, universe); a universe of up to 12 pids
   reaches past every table, a small one often holds no unlisted pid. *)
let gen_runnable g ~universe =
  let pids = List.filter (fun _ -> Rng.int g 4 > 0) (List.init universe Fun.id) in
  Array.of_list pids

(* The runnable set of each step. Unheld, it is a new random set every
   step, so nothing a policy keeps per runnable set survives a step. Held,
   one set lasts for runs of 1–50 steps, as the runtime's does between
   membership changes; a quarter of the steps pass it as a fresh array
   with the same contents, so a rebuild on a new array must pick what the
   old one would have. *)
let runnable_source g ~universe ~hold =
  let held = ref [||] and left = ref 0 in
  fun () ->
    if not hold then gen_runnable g ~universe
    else begin
      if !left = 0 then begin
        left := 1 + Rng.int g 50;
        held := gen_runnable g ~universe
      end;
      decr left;
      if Rng.int g 4 = 0 then held := Array.copy !held;
      !held
    end

(* A sparse runnable set: each pid of the universe drops out now and then
   for 1–200 steps, as a crashed-and-recovering or blocked process would,
   so a pid misses many of its due steps and [Switch_at] boundaries pass
   while it is not runnable. *)
let sparse_source g ~universe =
  let back_at = Array.make universe 0 in
  fun step ->
    let pids = ref [] in
    for p = universe - 1 downto 0 do
      if step >= back_at.(p) && Rng.int g 8 = 0 then
        back_at.(p) <- step + 1 + Rng.int g 200;
      if step >= back_at.(p) then pids := p :: !pids
    done;
    Array.of_list !pids

(* Each step advances the clock by 1–3. [~jump] advances by 1–40 instead,
   so an [Every] pid's due step is overtaken by many periods;
   [~backwards] sometimes moves the clock back by up to 100 steps. *)
let advance g ~jump ~backwards step =
  if backwards && Rng.int g 16 = 0 then Int.max 0 (step - 1 - Rng.int g 100)
  else step + 1 + Rng.int g (if jump then 40 else 3)

(* One step's agreement: the same choice, and rng streams still in step. *)
let agree ~label i step ~got ~want rng_new rng_oracle =
  if got <> want then
    Alcotest.failf "%s %d step %d: got %d, oracle %d" label i step got want;
  if Rng.int rng_new 1_000_000 <> Rng.int rng_oracle 1_000_000 then
    Alcotest.failf "%s %d step %d: rng streams diverged" label i step

let check_equivalent ?(hold = false) ?(sparse = false) ?(jump = false)
    ?(backwards = false) ~label ~policies ~steps make_new make_oracle gen =
  for i = 0 to policies - 1 do
    let g = Rng.create (Int64.of_int (1000 + i)) in
    let universe = 1 + Rng.int g 12 in
    let spec = gen g ~universe in
    let fresh = make_new spec and oracle = make_oracle spec in
    let rng_new = Rng.create (Int64.of_int i) in
    let rng_oracle = Rng.create (Int64.of_int i) in
    let next_runnable =
      if sparse then sparse_source g ~universe
      else
        let source = runnable_source g ~universe ~hold in
        fun _ -> source ()
    in
    let step = ref 0 in
    for _ = 1 to steps do
      step := advance g ~jump ~backwards !step;
      let runnable = next_runnable !step in
      let got = Policy.next fresh ~step:!step ~runnable ~rng:rng_new in
      let want =
        Option.value ~default:(-1) (oracle ~step:!step ~runnable ~rng:rng_oracle)
      in
      agree ~label i !step ~got ~want rng_new rng_oracle
    done
  done

let test_patterns_match_oracle () =
  check_equivalent ~label:"patterns" ~policies:200 ~steps:2_000
    (fun a -> Policy.of_patterns a)
    Oracle.of_patterns gen_assignments

let test_patterns_match_oracle_held () =
  check_equivalent ~hold:true ~label:"patterns (held sets)" ~policies:200
    ~steps:2_000
    (fun a -> Policy.of_patterns a)
    Oracle.of_patterns gen_assignments

let test_patterns_match_oracle_sparse () =
  check_equivalent ~sparse:true ~jump:true ~label:"patterns (sparse sets)"
    ~policies:200 ~steps:2_000
    (fun a -> Policy.of_patterns a)
    Oracle.of_patterns gen_assignments

let test_patterns_match_oracle_backwards () =
  check_equivalent ~hold:true ~backwards:true
    ~label:"patterns (steps going back)" ~policies:200 ~steps:2_000
    (fun a -> Policy.of_patterns a)
    Oracle.of_patterns gen_assignments

(* Assignments shaped like a compiled fault plan: n processes and 0–2
   replicas in the base rotation (period n+replicas+1, offset pid, one
   spare step per round), each with up to two switches at random steps to
   a [Slowing] (burst 8n), a [Flicker] or a timely [Every]. A timely
   period is sometimes far longer than the set is large, so a wheel
   bucket also holds pids due whole laps later. *)
let gen_plan g ~steps =
  let n = 2 + Rng.int g 7 and replicas = Rng.int g 3 in
  let size = n + replicas in
  let atom pid =
    match Rng.int g 3 with
    | 0 ->
      Policy.Slowing
        { initial_gap = 1 + Rng.int g 200; growth = 1.0 +. Rng.float g;
          burst = 8 * n }
    | 1 ->
      Policy.Flicker
        { active = 1 + Rng.int g 50; sleep = Rng.int g 100;
          growth = 1.0 +. Rng.float g }
    | _ ->
      let period =
        if Rng.int g 4 = 0 then 1 + Rng.int g 5_000 else 1 + Rng.int g (2 * size)
      in
      Policy.Every { period; offset = pid mod period }
  in
  let pattern pid =
    let switches = List.sort Int.compare (List.init (Rng.int g 3) (fun _ -> Rng.int g steps)) in
    List.fold_left
      (fun before at -> Policy.Switch_at (at, before, atom pid))
      (Policy.Every { period = size + 1; offset = pid })
      switches
  in
  size, List.init size (fun pid -> pid, pattern pid)

(* The runtime's shape of use: consecutive steps from 0, and a runnable
   array that is replaced, by a fresh sorted one, only when membership
   changes. Up to six events flip one pid each: a listed pid leaves for
   good (a crash or a retirement), one of three unlisted pids past the
   plan joins ([Weighted 1.0], a soft participant). Between events every
   pick sees the same array, so the calendar's steady state carries the
   run; its rebuilds come from the events and the plan's switches. *)
let test_patterns_match_oracle_runtime () =
  let steps = 20_000 in
  for i = 0 to 29 do
    let g = Rng.create (Int64.of_int (5000 + i)) in
    let size, assignments = gen_plan g ~steps in
    let policy = Policy.of_patterns assignments in
    let oracle = Oracle.of_patterns assignments in
    let rng_new = Rng.create (Int64.of_int i) in
    let rng_oracle = Rng.create (Int64.of_int i) in
    let universe = size + 3 in
    let member = Array.init universe (fun p -> p < size) in
    let members () =
      Array.of_list (List.filter (fun p -> member.(p)) (List.init universe Fun.id))
    in
    let events =
      ref
        (List.sort compare
           (List.init (Rng.int g 7) (fun _ -> Rng.int g steps, Rng.int g universe)))
    in
    let runnable = ref (members ()) in
    for step = 0 to steps - 1 do
      let rec apply changed =
        match !events with
        | (at, pid) :: rest when at = step ->
          member.(pid) <- pid >= size;
          events := rest;
          apply true
        | _ -> changed
      in
      if apply false then runnable := members ();
      let runnable = !runnable in
      let got = Policy.next policy ~step ~runnable ~rng:rng_new in
      let want =
        Option.value ~default:(-1) (oracle ~step ~runnable ~rng:rng_oracle)
      in
      agree ~label:"runtime-shaped" i step ~got ~want rng_new rng_oracle
    done
  done

(* Picks at consecutive steps [from, from + count) over one array. *)
let picks policy ~runnable ~from ~count =
  let rng = Rng.create 9L in
  List.init count (fun i -> Policy.next policy ~step:(from + i) ~runnable ~rng)

(* Rebuild on a new runnable array. Pids 1 and 2 claim the same odd
   steps; once 2 replaces 1, an odd step is 2's, not that of pid 1, which
   is gone. *)
let test_rebuild_on_contents () =
  let policy =
    Policy.of_patterns
      [
        0, Policy.Every { period = 2; offset = 0 };
        1, Policy.Every { period = 2; offset = 1 };
        2, Policy.Every { period = 2; offset = 1 };
      ]
  in
  Alcotest.(check (list int)) "before" [ 0; 1; 0 ]
    (picks policy ~runnable:[| 0; 1 |] ~from:0 ~count:3);
  Alcotest.(check (list int)) "after a new array" [ 2; 0; 2 ]
    (picks policy ~runnable:[| 0; 2 |] ~from:3 ~count:3)

(* Rebuild when the step is not the last one plus one. Skipping from step
   1 to 6 overtakes pid 1's claim at 2, and 6 is its next; going back from
   7 to 2 returns to that claim. *)
let test_rebuild_on_step_gap () =
  let policy =
    Policy.of_patterns
      [
        0, Policy.Every { period = 4; offset = 0 };
        1, Policy.Every { period = 4; offset = 2 };
      ]
  in
  let runnable = [| 0; 1 |] in
  Alcotest.(check (list int)) "steps 0-1" [ 0; 1 ] (picks policy ~runnable ~from:0 ~count:2);
  Alcotest.(check (list int)) "skip to 6" [ 1; 0 ] (picks policy ~runnable ~from:6 ~count:2);
  Alcotest.(check (list int)) "back to 2" [ 1 ] (picks policy ~runnable ~from:2 ~count:1)

(* Rebuild when a runnable slot's resolved range ends: pid 0 is silent
   until step 5 and claims the odd steps from then on, while the array
   and the run of consecutive steps stay the same. *)
let test_rebuild_on_range_end () =
  let policy =
    Policy.of_patterns
      [
        0, Policy.Switch_at (5, Policy.Silent, Policy.Every { period = 2; offset = 1 });
        1, Policy.Every { period = 2; offset = 0 };
      ]
  in
  Alcotest.(check (list int)) "switch at 5"
    [ 1; 1; 1; 1; 1; 0; 1; 0; 1; 0 ]
    (picks policy ~runnable:[| 0; 1 |] ~from:0 ~count:10)

(* A period far longer than the set does not size the calendar: the first
   pick, which builds it, allocates a few hundred bytes, not a wheel of a
   million buckets, and the claim still lands on its step. *)
let test_long_period_small_calendar () =
  let period = 1_000_000 in
  let policy =
    Policy.of_patterns
      [ 0, Policy.Every { period; offset = 3 }; 1, Policy.Every { period; offset = 7 } ]
  in
  let rng = Rng.create 1L in
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Policy.next policy ~step:0 ~runnable:[| 0; 1 |] ~rng));
  let bytes = Gc.allocated_bytes () -. before in
  if bytes > 10_000.0 then Alcotest.failf "first pick allocated %.0f bytes" bytes;
  (* spare steps alternate by last run; 3 and 7 are claimed *)
  Alcotest.(check (list int)) "claims" [ 1; 0; 0; 1; 0; 1; 1 ]
    (picks policy ~runnable:[| 0; 1 |] ~from:1 ~count:7)

let gen_weights g ~universe:_ =
  Array.init (Rng.int g 11) (fun _ ->
      Rng.int g 11 - 2, (if Rng.int g 5 = 0 then 0.0 else Rng.float g *. 4.0))

let test_weighted_matches_oracle () =
  check_equivalent ~label:"weighted" ~policies:50 ~steps:2_000 Policy.weighted
    Oracle.weighted gen_weights

let test_weighted_matches_oracle_held () =
  check_equivalent ~hold:true ~label:"weighted (held sets)" ~policies:50
    ~steps:2_000 Policy.weighted Oracle.weighted gen_weights

(* Minor-heap words per pick over [picks] steps of the all-[Every] base
   rotation of [Fault_plan] at n = 7: period 8, one spare step per round. *)
let words_per_pick next =
  let runnable = Array.init 7 Fun.id and rng = Rng.create 5L in
  let picks = 20_000 in
  let before = Gc.minor_words () in
  for step = 0 to picks - 1 do
    ignore (Sys.opaque_identity (next ~step ~runnable ~rng))
  done;
  (Gc.minor_words () -. before) /. float_of_int picks

let test_allocation_guard () =
  let rotation = List.init 7 (fun pid -> pid, Policy.Every { period = 8; offset = pid }) in
  let flat = words_per_pick (Policy.next (Policy.of_patterns rotation)) in
  let oracle = words_per_pick (Oracle.of_patterns rotation) in
  if not (5.0 *. flat <= oracle) then
    Alcotest.failf "of_patterns allocates %.1f words per pick, oracle %.1f" flat
      oracle;
  (* The claim walk allocates nothing, and a weighted draw only the boxed
     float that [Rng.float] returns. *)
  let draw = words_per_pick (Policy.next (Policy.weighted [| 0, 2.0; 3, 0.5 |])) in
  if flat > 0.01 || draw > 2.01 then
    Alcotest.failf "%.4f words per rotation pick, %.4f per weighted draw" flat
      draw

let rejects label pattern =
  match Policy.of_patterns [ 0, Policy.Weighted 1.0; 1, pattern ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label

let test_rejects_bad_period () =
  rejects "period 0" (Policy.Every { period = 0; offset = 0 });
  rejects "period -3" (Policy.Every { period = -3; offset = 1 });
  rejects "period 0 inside Switch_at"
    (Policy.Switch_at
       (10, Policy.Silent,
        Policy.Switch_at (20, Policy.Every { period = 0; offset = 0 }, Policy.Silent)))

let test_rejects_bad_active () =
  rejects "active 0" (Policy.Flicker { active = 0; sleep = 0; growth = 1.0 });
  rejects "active -1" (Policy.Flicker { active = -1; sleep = 5; growth = 2.0 });
  rejects "active 0 inside Switch_at"
    (Policy.Switch_at
       (10, Policy.Flicker { active = 0; sleep = 3; growth = 1.0 }, Policy.Silent))

let () =
  Alcotest.run "policy"
    [
      ( "unit",
        [
          Alcotest.test_case "round robin fair" `Quick test_round_robin_fair;
          Alcotest.test_case "round robin skips missing" `Quick
            test_round_robin_skips_missing;
          Alcotest.test_case "weighted respects weights" `Quick
            test_weighted_respects_weights;
          Alcotest.test_case "every claims its steps" `Quick test_every_claims;
          Alcotest.test_case "every gap bounded" `Quick test_every_gap_bounded;
          Alcotest.test_case "flicker gaps grow" `Quick test_flicker_gaps_grow;
          Alcotest.test_case "slowing gaps grow" `Quick test_slowing_gaps_grow;
          Alcotest.test_case "slowing burst" `Quick test_slowing_burst;
          Alcotest.test_case "silent never runs" `Quick test_silent_never_runs;
          Alcotest.test_case "switch_at" `Quick test_switch_at;
          Alcotest.test_case "replay lenient vs strict" `Quick
            test_replay_lenient_vs_strict;
          Alcotest.test_case "replay strict faithful" `Quick
            test_replay_strict_faithful;
          Alcotest.test_case "solo_after" `Quick test_solo_after;
          Alcotest.test_case "rejects Every period < 1" `Quick
            test_rejects_bad_period;
          Alcotest.test_case "rejects Flicker active < 1" `Quick
            test_rejects_bad_active;
          Alcotest.test_case "rebuild on new contents" `Quick
            test_rebuild_on_contents;
          Alcotest.test_case "rebuild on a step gap" `Quick
            test_rebuild_on_step_gap;
          Alcotest.test_case "rebuild at a range end" `Quick
            test_rebuild_on_range_end;
          Alcotest.test_case "long period, small calendar" `Quick
            test_long_period_small_calendar;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "of_patterns matches reference model" `Quick
            test_patterns_match_oracle;
          Alcotest.test_case "of_patterns matches reference model on held sets"
            `Quick test_patterns_match_oracle_held;
          Alcotest.test_case "of_patterns matches reference model on sparse sets"
            `Quick test_patterns_match_oracle_sparse;
          Alcotest.test_case
            "of_patterns matches reference model with steps going back" `Quick
            test_patterns_match_oracle_backwards;
          Alcotest.test_case
            "of_patterns matches reference model on runtime-shaped runs" `Quick
            test_patterns_match_oracle_runtime;
          Alcotest.test_case "weighted matches reference model" `Quick
            test_weighted_matches_oracle;
          Alcotest.test_case "weighted matches reference model on held sets"
            `Quick test_weighted_matches_oracle_held;
          Alcotest.test_case "of_patterns allocation guard" `Quick
            test_allocation_guard;
        ] );
    ]
