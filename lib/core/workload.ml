open Tbwf_sim

type stats = { issued : int array; completed : int array }

let fresh_stats ~n = { issued = Array.make n 0; completed = Array.make n 0 }

let issue stats ~pid = stats.issued.(pid) <- stats.issued.(pid) + 1

let complete rt stats ~pid =
  stats.completed.(pid) <- stats.completed.(pid) + 1;
  if Runtime.telemetry_active rt then Runtime.signal rt ~pid Sink.Op_complete

let spawn_clients rt ~pids ~stats ~invoke ~next_op =
  let client pid () =
    let rec loop k =
      match next_op ~pid ~k with
      | None -> ()
      | Some op ->
        issue stats ~pid;
        ignore (invoke op : Value.t);
        complete rt stats ~pid;
        loop (k + 1)
    in
    loop 0
  in
  List.iter
    (fun pid ->
      Runtime.spawn ~layer:Sink.App rt ~pid ~name:"client" (client pid))
    pids

let forever op ~pid:_ ~k:_ = Some op

let n_times n op ~pid:_ ~(k : int) = if k < n then Some op else None

(* --- the open-loop generator --------------------------------------------- *)

(* Open-loop traffic: each client draws a Poisson arrival schedule —
   exponential inter-arrival gaps with a fixed mean — and a Zipf-popular
   key per arrival, both from a private splitmix64 stream derived
   statelessly from (seed, pid). Arrivals are decided by the generator,
   not by completions: a client that falls behind (its previous operation
   outlived the next gap) issues the backlogged operation immediately,
   which is exactly the regime where degradation shows up as queueing
   rather than as a politely slower closed loop. *)
module Open_loop = struct
  type profile = { mean_gap : float; keys : int; zipf : float }

  let default = { mean_gap = 40.0; keys = 64; zipf = 1.1 }

  (* Written so that NaN fails each test: every comparison with NaN is
     false. *)
  let validate p =
    if not (Float.is_finite p.mean_gap && p.mean_gap > 0.0) then
      invalid_arg "Workload.Open_loop: mean_gap must be finite and positive";
    if p.keys < 1 then invalid_arg "Workload.Open_loop: keys must be positive";
    if not (Float.is_finite p.zipf && p.zipf >= 0.0) then
      invalid_arg "Workload.Open_loop: zipf must be finite and non-negative"

  (* Cumulative Zipf(s) weights over ranks 1..keys, normalized; sampling
     is one uniform draw plus a binary search. [zipf = 0] is uniform. *)
  let zipf_cdf p =
    let w = Array.init p.keys (fun i -> (1.0 /. float_of_int (i + 1)) ** p.zipf) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w

  let draw_key cdf rng =
    let u = Rng.float rng in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) <= u then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Exponential gap with the profile's mean, floored at one step:
     simultaneous arrivals would collapse into one scheduling slot
     anyway, and a zero gap from a tiny uniform draw would not be a
     gap. *)
  let draw_gap p rng =
    let u = Rng.float rng in
    Float.max 1.0 (-.p.mean_gap *. log (1.0 -. u))

  type traffic = { profile : profile; cdf : float array }

  let traffic profile =
    validate profile;
    { profile; cdf = zipf_cdf profile }

  (* One client's arrival clock, the transitions both client forms step
     through. [Fresh]: no gap drawn yet (the task has not stepped);
     [Pending]: the next arrival is [next], due at step [due];
     [Taken]: that arrival was issued, and the gap after it is drawn at
     the next poll, which both forms make right after the operation
     completes; [Done]: the next arrival is at or past [until]. *)
  type phase = Fresh | Pending | Taken | Done

  type arrivals = {
    traffic : traffic;
    rng : Rng.t;
    pid : int;
    until : float;
    op_of_key : pid:int -> k:int -> key:int -> Value.t;
    mutable phase : phase;
    mutable next : float;
    mutable due : int;
  }

  let arrivals traffic ~seed ~pid ~until ~op_of_key =
    {
      traffic;
      rng = Rng.create (Rng.task_seed ~master:seed pid);
      pid;
      until = float_of_int until;
      op_of_key;
      phase = Fresh;
      next = 0.0;
      due = 0;
    }

  let set_next a next =
    a.next <- next;
    if next < a.until then begin
      a.due <- int_of_float next;
      a.phase <- Pending
    end
    else a.phase <- Done

  type status = Arrived | Waiting | Exhausted

  let poll a ~now =
    (match a.phase with
    | Fresh -> set_next a (float_of_int now +. draw_gap a.traffic.profile a.rng)
    | Taken -> set_next a (a.next +. draw_gap a.traffic.profile a.rng)
    | Pending | Done -> ());
    match a.phase with
    | Done -> Exhausted
    | Fresh | Taken | Pending -> if now >= a.due then Arrived else Waiting

  let arrive a ~k =
    let key = draw_key a.traffic.cdf a.rng in
    a.phase <- Taken;
    a.op_of_key ~pid:a.pid ~k ~key

  (* The fiber form, over a caller-supplied [invoke]. *)
  let body rt ~stats ~invoke a () =
    let rec loop k =
      match poll a ~now:(Runtime.now rt) with
      | Exhausted -> ()
      | Arrived -> run k
      | Waiting ->
        Runtime.park (fun () -> Runtime.now rt >= a.due);
        run k
    and run k =
      let op = arrive a ~k in
      issue stats ~pid:a.pid;
      ignore (invoke op : Value.t);
      complete rt stats ~pid:a.pid;
      loop (k + 1)
    in
    loop 0

  let client_body rt ~pid ~stats ~invoke ~profile ~seed ~until ~op_of_key =
    body rt ~stats ~invoke
      (arrivals (traffic profile) ~seed ~pid ~until ~op_of_key)

  let spawn_clients rt ~pids ~stats ~invoke ~profile ~seed ~until ~op_of_key =
    let traffic = traffic profile in
    List.iter
      (fun pid ->
        Runtime.spawn ~layer:Sink.App rt ~pid ~name:"open-loop"
          (body rt ~stats ~invoke
             (arrivals traffic ~seed ~pid ~until ~op_of_key)))
      pids
end

type source = Closed of (pid:int -> k:int -> Value.t option) | Open of Open_loop.arrivals
