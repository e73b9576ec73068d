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

(* Figure 2, bottom: the monitoring process p's local variables. *)
type watch = {
  mutable hb_timeout : int;
  mutable hb_timer : int;
  mutable hb_counter : int;
  mutable prev_hb_counter : int;
  mutable allow_increment : bool;
}

let new_watch () =
  {
    hb_timeout = 1;
    hb_timer = 1;
    hb_counter = 0;
    prev_hb_counter = 0;
    allow_increment = true;
  }

(* One step of the countdown: decrement, and say whether it ran out. *)
let tick w =
  if w.hb_timer >= 1 then w.hb_timer <- w.hb_timer - 1;
  w.hb_timer = 0

(* The timer ran out: restart it before reading the heartbeat. *)
let restart w =
  w.hb_timer <- w.hb_timeout;
  w.prev_hb_counter <- w.hb_counter

(* Judge the heartbeat value [hb] just read. With
   [increment_guards:false], faults are charged on every timeout
   regardless of the register's value — the E11 ablation. *)
let judge ~adapt ~increment_guards rt t w hb =
  w.hb_counter <- hb;
  if hb < 0 then set_status rt t Inactive;
  if hb >= 0 && hb > w.prev_hb_counter then begin
    set_status rt t Active;
    w.allow_increment <- true
  end;
  if increment_guards then begin
    if hb >= 0 && hb <= w.prev_hb_counter then begin
      set_status rt t Inactive;
      if w.allow_increment then begin
        incr t.fault_cntr;
        w.hb_timeout <- adapt w.hb_timeout;
        w.allow_increment <- false
      end
    end
  end
  else if hb <= w.prev_hb_counter then begin
    (* Ablation: charge a fault on every non-advancing read, even for the
       −1 sentinel and without the increased-since-last guard. *)
    set_status rt t Inactive;
    incr t.fault_cntr;
    w.hb_timeout <- adapt w.hb_timeout
  end

(* Figure 2, top, as a step machine: one call of [heartbeat_step] is one
   step of the monitored process's loop, and the heartbeat writes run
   through the register's port, so a write that takes many steps (a
   quorum round) keeps the loop where it is. pc 0: write the −1 sentinel;
   1: sentinel written, waiting for [active_for]; 2: a beat was written,
   keep beating while active. *)
let heartbeat_machine t : Runtime.machine =
  let slot = Reg.Port.slot [ t.hb.Reg.port ] in
  let write = Reg.Port.writer slot t.hb.Reg.port in
  let reset = t.hb.Reg.enc (-1) in
  let hb_counter = ref 0 in
  let pc = ref 0 in
  let rec heartbeat_step v =
    if slot.Reg.Port.busy then Reg.Port.resume slot v
    else
      match !pc with
      | 0 ->
        pc := 1;
        write reset
      | 1 ->
        if !(t.active_for) then begin
          incr hb_counter;
          pc := 2;
          write (Value.Int !hb_counter)
        end
        else Runtime.M_yield
      | 2 ->
        if !(t.active_for) then begin
          incr hb_counter;
          write (Value.Int !hb_counter)
        end
        else begin
          pc := 0;
          heartbeat_step v
        end
      | _ -> assert false
  in
  Reg.Port.machine slot heartbeat_step

(* Figure 2, bottom, as a step machine. pc 0: outer-loop top (status
   reset); 1: waiting for [monitoring]; 2: timer tick; 3: a heartbeat read
   returned [v]. The timer's wait ticks once per step, and the step that
   starts it has already ticked. *)
let watcher_machine ~adapt ~increment_guards rt t : Runtime.machine =
  let slot = Reg.Port.slot [ t.hb.Reg.port ] in
  let read = Reg.Port.reader slot t.hb.Reg.port in
  let w = new_watch () in
  let pc = ref 0 in
  let rec watcher_step v =
    if slot.Reg.Port.busy then Reg.Port.resume slot v
    else
      match !pc with
      | 0 ->
        t.status := Unknown;
        pc := 1;
        watcher_step v
      | 1 ->
        if !(t.monitoring) then begin
          w.hb_timer <- w.hb_timeout;
          pc := 2;
          watcher_step v
        end
        else Runtime.M_yield
      | 2 ->
        if not !(t.monitoring) then begin
          pc := 0;
          watcher_step v
        end
        else if tick w then begin
          restart w;
          pc := 3;
          read ()
        end
        else Runtime.M_yield
      | 3 ->
        judge ~adapt ~increment_guards rt t w (t.hb.Reg.dec v);
        pc := 2;
        watcher_step Value.Unit
      | _ -> assert false
  in
  Reg.Port.machine slot watcher_step

let install ?(adapt = succ) ?(increment_guards = true) ?factory rt ~p ~q =
  if p = q then invalid_arg "Activity_monitor.install: p = q";
  let factory =
    match factory with Some f -> f | None -> Reg.shared_factory rt
  in
  let hb =
    factory.Reg.mk_reg
      ~kind:(Reg.Swmr { writer = q })
      ~name:("Hb[" ^ string_of_int q ^ "->" ^ string_of_int p ^ "]")
      ~codec:Codec.int ~init:(-1)
  in
  let t =
    {
      p;
      q;
      monitoring = ref false;
      active_for = ref false;
      status = ref Unknown;
      fault_cntr = ref 0;
      hb;
    }
  in
  Runtime.spawn_machine ~layer:Sink.Monitor rt ~pid:q
    ~name:("amon-hb[" ^ string_of_int q ^ "->" ^ string_of_int p ^ "]")
    (heartbeat_machine t);
  Runtime.spawn_machine ~layer:Sink.Monitor rt ~pid:p
    ~name:("amon-watch[" ^ string_of_int p ^ "<-" ^ string_of_int q ^ "]")
    (watcher_machine ~adapt ~increment_guards rt t);
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
