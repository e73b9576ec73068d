open Tbwf_sim

type stats = {
  issued : int array;
  completed : int array;
  last_response : Value.t option array;
}

let fresh_stats ~n =
  {
    issued = Array.make n 0;
    completed = Array.make n 0;
    last_response = Array.make n None;
  }

let issue stats ~pid = stats.issued.(pid) <- stats.issued.(pid) + 1

let complete rt stats ~pid response =
  stats.completed.(pid) <- stats.completed.(pid) + 1;
  stats.last_response.(pid) <- Some response;
  if Runtime.telemetry_active rt then Runtime.signal rt ~pid Sink.Op_complete

let spawn_clients rt ~pids ~stats ~invoke ~next_op =
  let client pid () =
    let rec loop k =
      match next_op ~pid ~k with
      | None -> ()
      | Some op ->
        issue stats ~pid;
        complete rt stats ~pid (invoke op);
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

  let validate p =
    if p.mean_gap <= 0.0 then
      invalid_arg "Workload.Open_loop: mean_gap must be positive";
    if p.keys < 1 then invalid_arg "Workload.Open_loop: keys must be positive";
    if p.zipf < 0.0 then
      invalid_arg "Workload.Open_loop: zipf must be non-negative"

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

  let body rt ~pid ~stats ~invoke ~profile ~cdf ~seed ~until ~op_of_key () =
    let rng = Rng.create (Rng.task_seed ~master:seed pid) in
    let until = float_of_int until in
    let rec loop k next_arrival =
      if next_arrival < until then begin
        let due = int_of_float next_arrival in
        Runtime.await (fun () -> Runtime.now rt >= due);
        let key = draw_key cdf rng in
        issue stats ~pid;
        complete rt stats ~pid (invoke (op_of_key ~pid ~k ~key));
        loop (k + 1) (next_arrival +. draw_gap profile rng)
      end
    in
    loop 0 (float_of_int (Runtime.now rt) +. draw_gap profile rng)

  let client_body rt ~pid ~stats ~invoke ~profile ~seed ~until ~op_of_key =
    validate profile;
    let cdf = zipf_cdf profile in
    body rt ~pid ~stats ~invoke ~profile ~cdf ~seed ~until ~op_of_key

  let spawn_clients rt ~pids ~stats ~invoke ~profile ~seed ~until ~op_of_key =
    validate profile;
    let cdf = zipf_cdf profile in
    List.iter
      (fun pid ->
        Runtime.spawn ~layer:Sink.App rt ~pid ~name:"open-loop"
          (body rt ~pid ~stats ~invoke ~profile ~cdf ~seed ~until ~op_of_key))
      pids
end
