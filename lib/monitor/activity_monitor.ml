open Tbwf_sim
open Tbwf_registers

type status = Active | Inactive | Unknown

let pp_status fmt = function
  | Active -> Fmt.string fmt "active"
  | Inactive -> Fmt.string fmt "inactive"
  | Unknown -> Fmt.string fmt "?"

let equal_status a b =
  match a, b with
  | Active, Active | Inactive, Inactive | Unknown, Unknown -> true
  | (Active | Inactive | Unknown), _ -> false

type t = {
  p : int;
  q : int;
  monitoring : bool ref;
  active_for : bool ref;
  status : status ref;
  fault_cntr : int ref;
  hb : int Reg.t;
}

(* Set the monitor's status estimate, emitting a telemetry signal when the
   Active/Inactive verdict actually flips (resets to Unknown are not
   suspicion changes and stay silent). *)
let set_status rt t s =
  if not (equal_status !(t.status) s) then begin
    (match s with
    | Active | Inactive ->
      if Runtime.telemetry_active rt then
        Runtime.signal rt ~pid:t.p
          (Sink.Suspicion_flip
             { watched = t.q; suspected = equal_status s Inactive })
    | Unknown -> ());
    t.status := s
  end

(* Figure 2, top: code for the monitored process q. *)
let monitored_loop t =
  let hb_counter = ref 0 in
  while true do
    t.hb.Reg.write (-1);
    Runtime.await (fun () -> !(t.active_for));
    while !(t.active_for) do
      incr hb_counter;
      t.hb.Reg.write !hb_counter
    done
  done

(* Figure 2, bottom: code for the monitoring process p. With
   [increment_guards:false], faults are charged on every timeout regardless
   of the register's value — the E11 ablation. *)
let monitoring_loop ~adapt ~increment_guards rt t =
  let hb_timeout = ref 1 in
  let hb_timer = ref 1 in
  let hb_counter = ref 0 in
  let prev_hb_counter = ref 0 in
  let allow_increment = ref true in
  (* One step of the countdown: decrement, and say whether it ran out. *)
  let tick () =
    if !hb_timer >= 1 then decr hb_timer;
    !hb_timer = 0
  in
  (* Park, not await: the step that starts the wait already ticked. *)
  let expired () = (not !(t.monitoring)) || tick () in
  while true do
    t.status := Unknown;
    Runtime.await (fun () -> !(t.monitoring));
    hb_timer := !hb_timeout;
    while !(t.monitoring) do
      if not (tick ()) then Runtime.park expired;
      (* Still monitoring here means the timer ran out. *)
      if !(t.monitoring) then begin
        hb_timer := !hb_timeout;
        prev_hb_counter := !hb_counter;
        hb_counter := t.hb.Reg.read ();
        if !hb_counter < 0 then set_status rt t Inactive;
        if !hb_counter >= 0 && !hb_counter > !prev_hb_counter then begin
          set_status rt t Active;
          allow_increment := true
        end;
        if increment_guards then begin
          if !hb_counter >= 0 && !hb_counter <= !prev_hb_counter then begin
            set_status rt t Inactive;
            if !allow_increment then begin
              incr t.fault_cntr;
              hb_timeout := adapt !hb_timeout;
              allow_increment := false
            end
          end
        end
        else if !hb_counter <= !prev_hb_counter then begin
          (* Ablation: charge a fault on every non-advancing read, even for
             the −1 sentinel and without the increased-since-last guard. *)
          set_status rt t Inactive;
          incr t.fault_cntr;
          hb_timeout := adapt !hb_timeout
        end
      end
    done
  done

let make ?factory rt ~p ~q =
  if p = q then invalid_arg "Activity_monitor.install: p = q";
  let factory =
    match factory with Some f -> f | None -> Reg.shared_factory rt
  in
  let hb =
    factory.Reg.mk_reg
      ~kind:(Reg.Swmr { writer = q })
      ~name:(Fmt.str "Hb[%d->%d]" q p)
      ~codec:Codec.int ~init:(-1)
  in
  {
    p;
    q;
    monitoring = ref false;
    active_for = ref false;
    status = ref Unknown;
    fault_cntr = ref 0;
    hb;
  }

let task_names t =
  Fmt.str "amon-hb[%d->%d]" t.q t.p, Fmt.str "amon-watch[%d<-%d]" t.p t.q

let install ?(adapt = succ) ?(increment_guards = true) ?factory rt ~p ~q =
  let t = make ?factory rt ~p ~q in
  let hb_name, watch_name = task_names t in
  Runtime.spawn ~layer:Sink.Monitor rt ~pid:q ~name:hb_name (fun () ->
      monitored_loop t);
  Runtime.spawn ~layer:Sink.Monitor rt ~pid:p ~name:watch_name (fun () ->
      monitoring_loop ~adapt ~increment_guards rt t);
  t

type sample = { at_step : int; status_now : status; fault_cntr_now : int }

let last_n n samples =
  let len = List.length samples in
  if len <= n then samples else List.filteri (fun i _ -> i >= len - n) samples

let check_status_eventually samples ~expect ~suffix =
  let tail = last_n suffix samples in
  tail <> [] && List.for_all (fun s -> expect s.status_now) tail

let fault_cntr_bounded samples ~suffix =
  match last_n suffix samples with
  | [] -> false
  | first :: _ as tail ->
    let last = List.nth tail (List.length tail - 1) in
    last.fault_cntr_now = first.fault_cntr_now

let fault_cntr_unbounded samples ~suffix =
  match last_n suffix samples with
  | [] -> false
  | first :: _ as tail ->
    let last = List.nth tail (List.length tail - 1) in
    last.fault_cntr_now > first.fault_cntr_now
