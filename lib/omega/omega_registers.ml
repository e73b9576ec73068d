open Tbwf_sim
open Tbwf_registers
open Tbwf_monitor

type t = {
  handles : Omega_spec.handle array;
  monitors : Activity_monitor.t option array array;
  counters : int Reg.t array;
}

(* A(p,q): p's monitor of q. *)
let monitor t p q = Option.get t.monitors.(p).(q)

(* ACTIVE-FOR[q] at p is the input of A(q,p): "is p active for q?". *)
let active_for t p q =
  (Option.get t.monitors.(q).(p)).Activity_monitor.active_for

(* Figure 3, process p's local variables. *)
type local = {
  p : int;
  n : int;
  handle : Omega_spec.handle;
  status : Activity_monitor.status array;
  fault_cntr : int array;
  max_fault_cntr : int array;
  counter : int array;
}

let new_local t p n =
  {
    p;
    n;
    handle = t.handles.(p);
    status = Array.make n Activity_monitor.Unknown;
    fault_cntr = Array.make n 0;
    max_fault_cntr = Array.make n 0;
    counter = Array.make n 0;
  }

(* Lines 2–4: no leader, and neither monitoring nor advertising. *)
let withdraw rt t l =
  Omega_spec.set_view rt l.handle Omega_spec.No_leader;
  for q = 0 to l.n - 1 do
    if q <> l.p then (monitor t l.p q).Activity_monitor.monitoring := false
  done;
  for q = 0 to l.n - 1 do
    if q <> l.p then active_for t l.p q := false
  done

(* Line 6: monitor every other process while competing. *)
let enter t l =
  for q = 0 to l.n - 1 do
    if q <> l.p then (monitor t l.p q).Activity_monitor.monitoring := true
  done

(* Lines 10–11 for one q: take A(p,q)'s estimate, or say it offers none
   yet. *)
let consult t l q =
  let mon = monitor t l.p q in
  let status = !(mon.Activity_monitor.status) in
  (not (Activity_monitor.equal_status status Activity_monitor.Unknown))
  && begin
       l.status.(q) <- status;
       l.fault_cntr.(q) <- !(mon.Activity_monitor.fault_cntr);
       true
     end

(* Lines 12–17: leader := ℓ with (counter ℓ, ℓ) minimal over the active
   set, and advertise activity only while self-elected. *)
let elect rt t l =
  l.status.(l.p) <- Activity_monitor.Active;
  let leader = ref l.p in
  for q = 0 to l.n - 1 do
    if
      Activity_monitor.equal_status l.status.(q) Activity_monitor.Active
      && Omega_spec.precedes l.counter q !leader
    then leader := q
  done;
  Omega_spec.set_view rt l.handle (Omega_spec.Leader !leader);
  let am_leader = !leader = l.p in
  for q = 0 to l.n - 1 do
    if q <> l.p then active_for t l.p q := am_leader
  done

(* Line 19: A(p,q) reported a fault since p last punished q. *)
let faulted l q = l.fault_cntr.(q) > l.max_fault_cntr.(q)

(* Figure 3, main code for process p, as a step machine: one call of
   [omega_step] is one step of p's loop, and the counter operations run
   through each counter's port, so an operation that takes many steps (a
   quorum round) keeps the loop where it is. pc 0: loop top (withdraw); 1:
   awaiting candidacy; 2: the self-punishment read returned; 3: its write
   returned; 4: inner-loop candidacy check; 5: consulting A(p,q) for q =
   [i], each until it offers an estimate; 6: the read of counter [i]
   returned; 7: punishment scan at q = [i]; 8: the punishment write to [i]
   returned. *)
let omega_machine ~self_punishment rt t p n : Runtime.machine =
  let l = new_local t p n in
  let slot =
    Reg.Port.slot (Array.to_list (Array.map (fun c -> c.Reg.port) t.counters))
  in
  let reads = Array.map (fun c -> Reg.Port.reader slot c.Reg.port) t.counters
  and writes =
    Array.map (fun c -> Reg.Port.writer slot c.Reg.port) t.counters
  in
  let i = ref 0 in
  let pc = ref 0 in
  let rec omega_step v =
    if slot.Reg.Port.busy then Reg.Port.resume slot v
    else
      match !pc with
      | 0 ->
        withdraw rt t l;
        pc := 1;
        omega_step v
      | 1 ->
        if !(l.handle.Omega_spec.candidate) then begin
          enter t l;
          if self_punishment then begin
            pc := 2;
            read p
          end
          else begin
            pc := 4;
            omega_step v
          end
        end
        else Runtime.M_yield
      | 2 ->
        l.counter.(p) <- t.counters.(p).Reg.dec v;
        pc := 3;
        write p (l.counter.(p) + 1)
      | 3 ->
        pc := 4;
        omega_step Value.Unit
      | 4 ->
        if !(l.handle.Omega_spec.candidate) then begin
          i := 0;
          pc := 5
        end
        else pc := 0;
        omega_step v
      | 5 ->
        if !i = p then incr i;
        if !i >= n then begin
          i := 0;
          pc := 6;
          read 0
        end
        else if consult t l !i then begin
          incr i;
          omega_step v
        end
        else Runtime.M_yield
      | 6 ->
        l.counter.(!i) <- t.counters.(!i).Reg.dec v;
        incr i;
        if !i < n then read !i
        else begin
          elect rt t l;
          i := 0;
          pc := 7;
          omega_step Value.Unit
        end
      | 7 ->
        if !i = p then incr i;
        if !i >= n then begin
          pc := 4;
          omega_step v
        end
        else if faulted l !i then begin
          pc := 8;
          write !i (l.counter.(!i) + 1)
        end
        else begin
          incr i;
          omega_step v
        end
      | 8 ->
        l.max_fault_cntr.(!i) <- l.fault_cntr.(!i);
        incr i;
        pc := 7;
        omega_step Value.Unit
      | _ -> assert false
  and read q = reads.(q) ()
  and write q x = writes.(q) (t.counters.(q).Reg.enc x) in
  Reg.Port.machine slot omega_step

let install ?(self_punishment = true) ?factory ?n rt =
  let n = match n with Some n -> n | None -> Runtime.n rt in
  let factory =
    match factory with Some f -> f | None -> Reg.shared_factory rt
  in
  let monitors =
    Array.init n (fun p ->
        Array.init n (fun q ->
            if p = q then None
            else Some (Activity_monitor.install ~factory rt ~p ~q)))
  in
  let counters =
    Array.init n (fun q ->
        factory.Reg.mk_reg ~kind:Reg.Mwmr
          ~name:("Counter[" ^ string_of_int q ^ "]")
          ~codec:Codec.int ~init:0)
  in
  let handles = Array.init n (fun pid -> Omega_spec.make_handle ~pid) in
  let t = { handles; monitors; counters } in
  for p = 0 to n - 1 do
    Runtime.spawn_machine ~layer:Sink.Omega rt ~pid:p
      ~name:("omega[" ^ string_of_int p ^ "]")
      (omega_machine ~self_punishment rt t p n)
  done;
  t
