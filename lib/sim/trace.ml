type op_event = {
  step : int;
  pid : int;
  obj_id : int;
  obj_name : string;
  op : Value.t;
  phase : [ `Invoke | `Respond of Value.t ];
}

(* The trace retains every step and every operation event for the whole
   run, so its representation is what the major GC re-marks cycle after
   cycle — a naive list of event records costs hundreds of ns/step on
   long runs just in marking. Events are therefore stored
   struct-of-arrays in Bigarrays (off-heap, never scanned), with operands
   and results compressed to int codes: reads, int-valued writes, unit /
   abort / fail / bool / int results — the overwhelming majority of a
   TBWF run's events — need no heap value at all. The rare other shapes
   (e.g. RMW ops, pair-valued message writes) go to a small [overflow]
   value array, the only GC-visible part of the log. [op_event] records
   are materialized on demand for the (cold) analysis API. *)

type ints =
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_ints len : ints =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

(* Signed ints fold into non-negative codes by zigzag. *)
let zig i = if i >= 0 then 2 * i else (-2 * i) - 1
let unzig z = if z land 1 = 0 then z / 2 else -((z + 1) / 2)

(* Operand codes: negative = overflow slot -(code+1); 1 = read;
   2+zig i = write of [Int i]. Result codes: negative = overflow slot;
   1 = invocation event (no result); 2..6 = unit/abort/fail/false/true;
   7+zig i = [Int i]. An invocation is exactly code 1, so no in-band
   marker value can be forged by a weird workload result. *)
let res_invoke = 1

type t = {
  mutable steps : ints;  (* steps.{i} = pid of step i *)
  mutable len : int;
  mutable ev_step : ints;
  mutable ev_pid : ints;
  mutable ev_obj : ints;
  mutable ev_op : ints;  (* operand codes *)
  mutable ev_res : ints;  (* result codes *)
  mutable ev_name : ints;  (* per-event name id into [names] *)
  mutable n_events : int;
  mutable overflow : Value.t array;  (* values the codes can't carry *)
  mutable n_overflow : int;
  mutable names : string array;  (* name id -> interned name *)
  mutable n_names : int;
  (* obj_id -> (last name seen, its id): the sink hands over the object
     itself, whose name is the same physically-equal string on every
     event, so interning is one array load + pointer compare on the hot
     path. *)
  mutable cache_name : string array;
  mutable cache_nid : int array;
}

let create () =
  {
    steps = make_ints 1024;
    len = 0;
    ev_step = make_ints 1024;
    ev_pid = make_ints 1024;
    ev_obj = make_ints 1024;
    ev_op = make_ints 1024;
    ev_res = make_ints 1024;
    ev_name = make_ints 1024;
    n_events = 0;
    overflow = Array.make 64 Value.Unit;
    n_overflow = 0;
    names = Array.make 16 "";
    n_names = 0;
    cache_name = Array.make 16 "";
    cache_nid = Array.make 16 (-1);
  }

let grow_ints (a : ints) : ints =
  let cap = Bigarray.Array1.dim a in
  let b = make_ints (2 * cap) in
  Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 cap);
  b

let record_step t ~pid =
  if t.len = Bigarray.Array1.dim t.steps then t.steps <- grow_ints t.steps;
  Bigarray.Array1.unsafe_set t.steps t.len pid;
  t.len <- t.len + 1

let grow_events t =
  t.ev_step <- grow_ints t.ev_step;
  t.ev_pid <- grow_ints t.ev_pid;
  t.ev_obj <- grow_ints t.ev_obj;
  t.ev_op <- grow_ints t.ev_op;
  t.ev_res <- grow_ints t.ev_res;
  t.ev_name <- grow_ints t.ev_name

let push_overflow t v =
  let cap = Array.length t.overflow in
  if t.n_overflow = cap then begin
    let bigger = Array.make (2 * cap) Value.Unit in
    Array.blit t.overflow 0 bigger 0 cap;
    t.overflow <- bigger
  end;
  t.overflow.(t.n_overflow) <- v;
  t.n_overflow <- t.n_overflow + 1;
  -t.n_overflow  (* slot k encodes as -(k+1) *)

let op_code t (op : Value.t) =
  if op == Value.read_op then 1
  else
    match op with
    | Value.Pair (Value.Str "write", Value.Int i) -> 2 + zig i
    | Value.Pair (Value.Str "read", Value.Unit) -> 1
    | op -> push_overflow t op

let decode_op t code =
  if code < 0 then t.overflow.(-code - 1)
  else if code = 1 then Value.read_op
  else Value.write_op (Value.Int (unzig (code - 2)))

let res_code t (res : Value.t) =
  match res with
  | Value.Unit -> 2
  | Value.Abort -> 3
  | Value.Fail -> 4
  | Value.Bool false -> 5
  | Value.Bool true -> 6
  | Value.Int i -> 7 + zig i
  | res -> push_overflow t res

let decode_res t code =
  if code < 0 then t.overflow.(-code - 1)
  else
    match code with
    | 2 -> Value.Unit
    | 3 -> Value.Abort
    | 4 -> Value.Fail
    | 5 -> Value.Bool false
    | 6 -> Value.Bool true
    | code -> Value.Int (unzig (code - 7))

let intern_slow t obj_id obj_name =
  let nid = ref (-1) in
  for k = 0 to t.n_names - 1 do
    if !nid < 0 && String.equal t.names.(k) obj_name then nid := k
  done;
  if !nid < 0 then begin
    if t.n_names = Array.length t.names then begin
      let bigger = Array.make (2 * t.n_names) "" in
      Array.blit t.names 0 bigger 0 t.n_names;
      t.names <- bigger
    end;
    t.names.(t.n_names) <- obj_name;
    nid := t.n_names;
    t.n_names <- t.n_names + 1
  end;
  let len = Array.length t.cache_name in
  if obj_id >= len then begin
    let cap = Int.max (obj_id + 1) (2 * len) in
    let names = Array.make cap "" in
    let nids = Array.make cap (-1) in
    Array.blit t.cache_name 0 names 0 len;
    Array.blit t.cache_nid 0 nids 0 len;
    t.cache_name <- names;
    t.cache_nid <- nids
  end;
  t.cache_name.(obj_id) <- obj_name;
  t.cache_nid.(obj_id) <- !nid;
  !nid

let name_id t obj_id obj_name =
  if obj_id < Array.length t.cache_name && t.cache_name.(obj_id) == obj_name
  then t.cache_nid.(obj_id)
  else intern_slow t obj_id obj_name

let record_event t ~step ~pid ~obj_id ~obj_name ~op_code:oc ~res_code:rc =
  if t.n_events = Bigarray.Array1.dim t.ev_step then grow_events t;
  let nid = name_id t obj_id obj_name in
  let i = t.n_events in
  Bigarray.Array1.unsafe_set t.ev_step i step;
  Bigarray.Array1.unsafe_set t.ev_pid i pid;
  Bigarray.Array1.unsafe_set t.ev_obj i obj_id;
  Bigarray.Array1.unsafe_set t.ev_op i oc;
  Bigarray.Array1.unsafe_set t.ev_res i rc;
  Bigarray.Array1.unsafe_set t.ev_name i nid;
  t.n_events <- i + 1

let record_invoke t ~step ~pid ~obj_id ~obj_name ~op =
  record_event t ~step ~pid ~obj_id ~obj_name ~op_code:(op_code t op)
    ~res_code:res_invoke

let record_respond t ~step ~pid ~obj_id ~obj_name ~op ~result =
  record_event t ~step ~pid ~obj_id ~obj_name ~op_code:(op_code t op)
    ~res_code:(res_code t result)

let record_op t ev =
  match ev.phase with
  | `Invoke ->
    record_invoke t ~step:ev.step ~pid:ev.pid ~obj_id:ev.obj_id
      ~obj_name:ev.obj_name ~op:ev.op
  | `Respond result ->
    record_respond t ~step:ev.step ~pid:ev.pid ~obj_id:ev.obj_id
      ~obj_name:ev.obj_name ~op:ev.op ~result

(* Trace index i is runtime step i. A recorder attached after step 0
   would shift every later index, and with it every gap the timeliness
   analyses measure, so its first step is refused instead. *)
let misaligned t ~step =
  invalid_arg
    (Printf.sprintf
       "Trace.recorder: runtime step %d arrived as trace step %d (attach \
        the recorder before the run's first step)"
       step t.len)

let recorder t =
  {
    Sink.active = true;
    on_step =
      (fun ~step ~pid ~layer:_ ->
        if step <> t.len then misaligned t ~step;
        record_step t ~pid);
    on_invoke =
      (fun ~step ~pid ~obj ~op ->
        record_invoke t ~step ~pid ~obj_id:obj.Shared.id
          ~obj_name:obj.Shared.name ~op);
    on_respond =
      (fun ~step ~pid ~layer:_ ~obj ~op ~invoked:_ ~overlapped:_ ~result ->
        record_respond t ~step ~pid ~obj_id:obj.Shared.id
          ~obj_name:obj.Shared.name ~op ~result);
    on_signal = Sink.nil.on_signal;
  }

let length t = t.len

let pid_at t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.pid_at: out of range";
  t.steps.{i}

let steps_of t ~pid =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.steps.{i} = pid then acc := i :: !acc
  done;
  !acc

let schedule t = List.init t.len (fun i -> t.steps.{i})

let event t i =
  let rc = t.ev_res.{i} in
  {
    step = t.ev_step.{i};
    pid = t.ev_pid.{i};
    obj_id = t.ev_obj.{i};
    obj_name = t.names.(t.ev_name.{i});
    op = decode_op t t.ev_op.{i};
    phase = (if rc = res_invoke then `Invoke else `Respond (decode_res t rc));
  }

let n_ops t = t.n_events

let ops t = List.init t.n_events (event t)

let ops_from t mark =
  let fresh = t.n_events - mark in
  if fresh <= 0 then [] else List.init fresh (fun i -> event t (mark + i))

let iter_ops t f =
  for i = 0 to t.n_events - 1 do
    f (event t i)
  done

let fingerprint t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "sched:";
  for i = 0 to t.len - 1 do
    Buffer.add_string buf (string_of_int t.steps.{i});
    Buffer.add_char buf ','
  done;
  Buffer.add_string buf "\nops:\n";
  iter_ops t (fun ev ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d %s %s %s\n" ev.step ev.pid ev.obj_id
           ev.obj_name
           (Value.to_string ev.op)
           (match ev.phase with
           | `Invoke -> "I"
           | `Respond r -> "R " ^ Value.to_string r)));
  Buffer.contents buf

let writes_in_window t ~obj_prefix ~from_step ~to_step =
  let counts = Hashtbl.create 16 in
  let prefix_matches name =
    String.length name >= String.length obj_prefix
    && String.sub name 0 (String.length obj_prefix) = obj_prefix
  in
  for i = 0 to t.n_events - 1 do
    let step = t.ev_step.{i} in
    let rc = t.ev_res.{i} in
    if
      rc <> res_invoke
      && step >= from_step && step <= to_step
      && Value.is_write (decode_op t t.ev_op.{i})
      && rc <> 3 (* Abort *)
      && (rc >= 0 || not (Value.equal t.overflow.(-rc - 1) Value.Abort))
      && prefix_matches t.names.(t.ev_name.{i})
    then begin
      let pid = t.ev_pid.{i} in
      let current = Option.value (Hashtbl.find_opt counts pid) ~default:0 in
      Hashtbl.replace counts pid (current + 1)
    end
  done;
  counts
