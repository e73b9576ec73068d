(* Scan the suffix once, counting q-steps between consecutive p-steps. *)
let max_gap trace ~p ~q ~from_step =
  let len = Trace.length trace in
  let biggest = ref 0 in
  let current = ref 0 in
  let p_stepped = ref false in
  for i = from_step to len - 1 do
    let pid = Trace.pid_at trace i in
    if pid = p then begin
      p_stepped := true;
      if !current > !biggest then biggest := !current;
      current := 0
    end
    else if pid = q then incr current
  done;
  if !current > !biggest then biggest := !current;
  if !p_stepped then Some !biggest
  else if !biggest = 0 then Some 0 (* q silent too: vacuously fine *)
  else None

let q_timely trace ~p ~q ~from_step ~bound =
  match max_gap trace ~p ~q ~from_step with
  | Some gap -> gap <= bound
  | None -> false

let timely trace ~n ~p ~from_step ~bound =
  let ok = ref true in
  for q = 0 to n - 1 do
    if q <> p && not (q_timely trace ~p ~q ~from_step ~bound) then ok := false
  done;
  !ok

(* [timely] for every p in one scan, with a row flush: [seen.(p).(q)]
   is q's step count at p's last step, so a step by
   p flushes row p, q's steps since then forming the gap that closes. A
   step costs O(n), the scan O(n × tail) in place of [timely]'s
   O(n² × tail) over all p. *)
let timely_all trace ~n ~from_step ~bound =
  let steps = Array.make n 0 in
  let seen = Array.make_matrix n n 0 in
  let biggest = Array.make_matrix n n 0 in
  let stepped = Array.make n false in
  for i = from_step to Trace.length trace - 1 do
    let pid = Trace.pid_at trace i in
    if pid >= 0 && pid < n then begin
      let seen_p = seen.(pid) and biggest_p = biggest.(pid) in
      for q = 0 to n - 1 do
        let gap = steps.(q) - seen_p.(q) in
        if gap > biggest_p.(q) then biggest_p.(q) <- gap;
        seen_p.(q) <- steps.(q)
      done;
      stepped.(pid) <- true;
      steps.(pid) <- steps.(pid) + 1
    end
  done;
  (* The trailing gap, then [q_timely]: a p that never stepped is
     vacuously q-timely only while q never stepped either. *)
  Array.init n (fun p ->
      let ok = ref true in
      for q = 0 to n - 1 do
        if q <> p then begin
          let gap = Int.max biggest.(p).(q) (steps.(q) - seen.(p).(q)) in
          if (not (stepped.(p) || gap = 0)) || gap > bound then ok := false
        end
      done;
      !ok)
