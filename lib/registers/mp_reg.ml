(* Message-passing register emulations: ABD atomic and time-efficient
   regular registers over the simulated network, plus the client-side
   abortable adapter. See mp_reg.mli for semantics. *)

open Tbwf_sim
module Net = Tbwf_net.Net

(* Per-replica per-register state. Atomic registers use (ts, wid, v);
   regular registers use (sn, v). Unused fields stay at their inits. *)
type rstate = {
  mutable ts : int;
  mutable wid : int;
  mutable sn : int;
  mutable v : Value.t;
}

(* [(ts, wid) > (ts', wid')] on ABD tags, without building the tuples *)
let tag_gt (ts : int) (wid : int) ts' wid' = ts > ts' || (ts = ts' && wid > wid')

module Cluster = struct
  type t = {
    rt : Runtime.t;
    net : Net.t;
    replicas : int;
    first_replica : int;  (* replica r is pid [first_replica + r] *)
    majority : int;
    retransmit_every : int;
    replica_inboxes : Shared.t array;  (* r -> replica r's inbox *)
    mutable states : rstate array array;  (* rid -> one state per replica *)
    mutable next_rid : int;
  }

  let net t = t.net

  (* Request handling at replica [r]. Every handler is idempotent (tag
     and sequence updates are monotonic), so retransmitted requests are
     harmless. *)
  let process t ~r payload =
    let open Value in
    match payload with
    | List [ Str "aq"; Int rid ] ->
      let s = t.states.(rid).(r) in
      List [ Str "aqr"; Int rid; Int s.ts; Int s.wid; s.v ]
    | List [ Str "aw"; Int rid; Int ts; Int wid; v ] ->
      let s = t.states.(rid).(r) in
      if tag_gt ts wid s.ts s.wid then begin
        s.ts <- ts;
        s.wid <- wid;
        s.v <- v
      end;
      List [ Str "awr"; Int rid ]
    | List [ Str "rw"; Int rid; Int sn; v ] ->
      let s = t.states.(rid).(r) in
      if sn > s.sn then begin
        s.sn <- sn;
        s.v <- v
      end;
      List [ Str "rwr"; Int rid; Int sn ]
    | List [ Str "rq"; Int rid ] ->
      let s = t.states.(rid).(r) in
      List [ Str "rqr"; Int rid; Int s.sn; s.v ]
    | _ -> Fail

  (* Replica [r]'s server, a two-state machine: poll every due message
     (catch-all), then answer the delivered ones one send per step, each
     processed at the step its send is issued, and poll again. Only a
     poll answers with a list. *)
  type server = {
    cluster : t;
    r : int;
    poll : Runtime.machine_action;
    mutable delivered : Value.t list;  (* delivered, not yet answered *)
  }

  let server_step s v =
    (match v with Value.List msgs -> s.delivered <- msgs | _ -> ());
    match s.delivered with
    | Value.Pair (Value.Int src, Value.Pair (Value.Int key, payload)) :: rest ->
      s.delivered <- rest;
      Runtime.M_call
        ( Net.inbox s.cluster.net src,
          Net.post_op ~key (process s.cluster ~r:s.r payload) )
    | [] -> s.poll
    | _ -> assert false

  let create rt ~net =
    let config = Net.config net in
    let replicas = config.Net.replicas in
    let t =
      {
        rt;
        net;
        replicas;
        first_replica = Net.replica_pid net 0;
        majority = Net.majority config;
        retransmit_every = config.Net.retransmit_every;
        replica_inboxes =
          Array.init replicas (fun r -> Net.inbox net (Net.replica_pid net r));
        states = [||];
        next_rid = 0;
      }
    in
    for r = 0 to replicas - 1 do
      let pid = Net.replica_pid net r in
      let s =
        {
          cluster = t;
          r;
          poll =
            Runtime.M_call (Net.inbox net pid, Net.poll_op ~key:Net.catch_all);
          delivered = [];
        }
      in
      Runtime.spawn_machine ~layer:Sink.Other rt ~pid
        ~name:(Fmt.str "replica[%d]" r)
        (fun v -> server_step s v)
    done;
    t
end

let alloc (cl : Cluster.t) init =
  let rid = cl.Cluster.next_rid in
  cl.Cluster.next_rid <- rid + 1;
  if rid = Array.length cl.Cluster.states then begin
    let grown = Array.make (Int.max 8 (2 * rid)) [||] in
    Array.blit cl.Cluster.states 0 grown 0 rid;
    cl.Cluster.states <- grown
  end;
  cl.Cluster.states.(rid) <-
    Array.init cl.Cluster.replicas (fun _ ->
        { ts = 0; wid = -1; sn = 0; v = init });
  rid

(* --- a quorum round as a machine ----------------------------------------- *)

(* Replies are lists, so no reply is ever [Unit]. *)
let no_reply = Value.Unit

(* One caller's quorum round on one register: broadcast the request under
   a fresh key, one send per step, then poll, retransmitting to the silent
   replicas every [retransmit_every] polls, until a majority of distinct
   replicas sent the reply the round waits for. The state lives as long as
   the caller's port and each round resets it, so a round allocates its
   request and its poll but no array or closure. *)
type round = {
  cl : Cluster.t;
  rid : int;
  replies : Value.t array;  (* replica -> its accepted reply, or [no_reply] *)
  mutable count : int;  (* accepted replies *)
  mutable countdown : int;  (* polls left until the next retransmission *)
  mutable next : int;  (* the broadcast's next replica *)
  mutable missing_only : bool;  (* the broadcast is a retransmission *)
  mutable expect : string;  (* the tag of the reply the round waits for *)
  mutable post : Value.t;  (* the request, keyed *)
  mutable poll : Runtime.machine_action;
}

(* Count the poll's delivered messages that come from a replica not yet
   heard from in this round and are the reply the round waits for. *)
let rec accept_replies r = function
  | Value.Pair (Value.Int src, Value.Pair (_, payload)) :: rest ->
    let i = src - r.cl.Cluster.first_replica in
    (match payload with
    | Value.List (Value.Str tag :: Value.Int rid :: _)
      when i >= 0 && i < r.cl.Cluster.replicas && r.replies.(i) == no_reply
           && String.equal tag r.expect && rid = r.rid ->
      r.replies.(i) <- payload;
      r.count <- r.count + 1
    | _ -> ());
    accept_replies r rest
  | _ -> ()

let new_round (cl : Cluster.t) rid =
  {
    cl;
    rid;
    replies = Array.make cl.Cluster.replicas no_reply;
    count = 0;
    countdown = 0;
    next = 0;
    missing_only = false;
    expect = "";
    post = Value.Unit;
    poll = Runtime.M_halt;
  }

(* The round's next call: the broadcast's next send, or a poll. *)
let rec next_call r =
  if r.next < r.cl.Cluster.replicas then begin
    let i = r.next in
    r.next <- i + 1;
    if r.missing_only && r.replies.(i) != no_reply then next_call r
    else Runtime.M_call (r.cl.Cluster.replica_inboxes.(i), r.post)
  end
  else r.poll

(* Begin a round at the current step: its first call. *)
let begin_round r expect request =
  let net = r.cl.Cluster.net in
  let pid = Runtime.running r.cl.Cluster.rt in
  let key = Net.fresh_key net ~pid in
  r.expect <- expect;
  r.post <- Net.post_op ~key request;
  r.poll <- Runtime.M_call (Net.inbox net pid, Net.poll_op ~key);
  Array.fill r.replies 0 (Array.length r.replies) no_reply;
  r.count <- 0;
  r.countdown <- r.cl.Cluster.retransmit_every;
  r.next <- 0;
  r.missing_only <- false;
  next_call r

(* Feed the round its last call's answer: its next call, or [M_halt] once
   a majority answered. Only a poll answers with a list. *)
let round_answer r = function
  | Value.List msgs ->
    accept_replies r msgs;
    r.countdown <- r.countdown - 1;
    if r.countdown = 0 then begin
      r.countdown <- r.cl.Cluster.retransmit_every;
      if r.count < r.cl.Cluster.majority then begin
        r.next <- 0;
        r.missing_only <- true
      end
    end;
    if r.count >= r.cl.Cluster.majority then Runtime.M_halt else next_call r
  | _ -> next_call r

(* A caller's operations whose calls are rounds on [r]. When a round
   completes, [finish] begins the operation's next round or ends it
   ([M_halt]). *)
let round_ops r ~read ~write ~finish ~result =
  let answer v =
    match round_answer r v with Runtime.M_halt -> finish () | action -> action
  in
  { Reg.Port.read; write; answer; result }

let check_role rt ~name ~role pid =
  if Runtime.running rt <> pid then
    invalid_arg
      (Printf.sprintf "Mp_reg %s: pid %d is not the %s" name
         (Runtime.running rt) role)

(* --- ABD-style MWMR atomic ------------------------------------------------ *)

let atomic cl ~name:_ ~codec ~init =
  let init_v = codec.Codec.enc init in
  let rid = alloc cl init_v in
  let open Value in
  let query = List [ Str "aq"; Int rid ] in
  (* The highest (ts, wid) tag among a query round's replies. *)
  let best r =
    let ts = ref 0 and wid = ref (-1) and v = ref init_v in
    for i = 0 to Array.length r.replies - 1 do
      match r.replies.(i) with
      | List [ _; _; Int ts'; Int wid'; v' ] when tag_gt ts' wid' !ts !wid ->
        ts := ts';
        wid := wid';
        v := v'
      | _ -> ()
    done;
    !ts, !wid, !v
  in
  (* A read queries the highest tag from a majority, then writes it back to
     a majority before returning, so no later read can observe an older
     tag. A write queries the highest timestamp, then writes [(ts+1,
     self)]. [value] holds what a write writes, then the result. *)
  let caller () =
    let r = new_round cl rid in
    let writing = ref false and updating = ref false and value = ref Unit in
    let start () =
      updating := false;
      begin_round r "aqr" query
    in
    let finish () =
      if !updating then Runtime.M_halt
      else begin
        let ts, wid, v = best r in
        let ts, wid, v =
          if !writing then ts + 1, Runtime.running cl.Cluster.rt, !value
          else ts, wid, v
        in
        value := if !writing then Unit else v;
        updating := true;
        begin_round r "awr" (List [ Str "aw"; Int rid; Int ts; Int wid; v ])
      end
    in
    round_ops r ~finish
      ~read:(fun () ->
        writing := false;
        start ())
      ~write:(fun x ->
        writing := true;
        value := x;
        start ())
      ~result:(fun () -> !value)
  in
  let peek () =
    let best =
      Array.fold_left
        (fun (best : rstate) s ->
          if tag_gt s.ts s.wid best.ts best.wid then s else best)
        { ts = 0; wid = -1; sn = 0; v = init_v }
        cl.Cluster.states.(rid)
    in
    codec.Codec.dec best.v
  in
  {
    Reg.port = Reg.Port.driven caller;
    peek;
    enc = codec.Codec.enc;
    dec = codec.Codec.dec;
  }

(* --- time-efficient SWMR regular ----------------------------------------- *)

(* A regular register's callers' operations, and its peek. *)
let regular_ops cl ~name ~codec ~init ~writer =
  let init_v = codec.Codec.enc init in
  let rid = alloc cl init_v in
  let open Value in
  let query = List [ Str "rq"; Int rid ] in
  let next_sn = ref 0 in
  (* The value of highest sequence number among a read round's replies. *)
  let freshest r =
    let sn = ref 0 and v = ref init_v in
    for i = 0 to Array.length r.replies - 1 do
      match r.replies.(i) with
      | List [ _; _; Int sn'; v' ] when sn' > !sn ->
        sn := sn';
        v := v'
      | _ -> ()
    done;
    !v
  in
  let caller () =
    let r = new_round cl rid in
    let reading = ref false and value = ref Unit in
    round_ops r
      ~read:(fun () ->
        reading := true;
        begin_round r "rqr" query)
      ~write:(fun x ->
        check_role cl.Cluster.rt ~name ~role:"writer" writer;
        reading := false;
        value := Unit;
        incr next_sn;
        begin_round r "rwr" (List [ Str "rw"; Int rid; Int !next_sn; x ]))
      ~finish:(fun () ->
        if !reading then value := freshest r;
        Runtime.M_halt)
      ~result:(fun () -> !value)
  in
  let peek () =
    let best =
      Array.fold_left
        (fun (best : rstate) s -> if s.sn > best.sn then s else best)
        { ts = 0; wid = -1; sn = 0; v = init_v }
        cl.Cluster.states.(rid)
    in
    codec.Codec.dec best.v
  in
  caller, peek

let regular cl ~name ~codec ~init ~writer =
  let caller, peek = regular_ops cl ~name ~codec ~init ~writer in
  {
    Reg.port = Reg.Port.driven caller;
    peek;
    enc = codec.Codec.enc;
    dec = codec.Codec.dec;
  }

(* --- SWSR abortable adapter ----------------------------------------------- *)

let abortable cl ~name ~codec ~init ~writer ~reader ~policy ~write_effect =
  let rt = cl.Cluster.rt in
  let base, peek = regular_ops cl ~name ~codec ~init ~writer in
  let write_effect =
    Option.value write_effect ~default:(Abort_policy.Effect_random 0.5)
  in
  (* The abort is decided before any message leaves: synthesize a solo
     context at the current step, so Unconditional fault policies (which
     key on respond_step and the object stream) behave exactly as on
     shared memory, while contention-gated policies never fire (legal —
     aborting is a permission, not an obligation). *)
  let decide op =
    let ctx =
      {
        Shared.pid = Runtime.running rt;
        respond_step = Runtime.now rt;
        overlapped = false;
        step_contended = false;
        rng = Runtime.obj_rng rt;
        op;
      }
    in
    Abort_policy.should_abort policy ~contended:false ctx
    && begin
         if Runtime.telemetry_active rt then
           Runtime.signal rt ~pid:(Runtime.running rt) Sink.Abort_decision;
         true
       end
  in
  (* An aborted write that takes effect performs the full quorum write and
     still answers ⊥. *)
  let caller () =
    let b = base () in
    let aborted = ref false in
    {
      b with
      Reg.Port.read =
        (fun () ->
          check_role rt ~name ~role:"reader" reader;
          aborted := decide Value.read_op;
          if !aborted then Runtime.M_halt else b.read ());
      write =
        (fun x ->
          check_role rt ~name ~role:"writer" writer;
          aborted := decide (Value.write_op x);
          if
            (not !aborted)
            || Abort_policy.write_takes_effect write_effect
                 (Runtime.obj_rng rt)
          then b.write x
          else Runtime.M_halt);
      result = (fun () -> if !aborted then Value.Abort else b.result ());
    }
  in
  {
    Reg.Abortable.port = Reg.Port.driven caller;
    peek;
    enc = codec.Codec.enc;
    dec = codec.Codec.dec;
  }

let factory cl =
  {
    Reg.mk_reg =
      (fun ~kind ~name ~codec ~init ->
        match kind with
        | Reg.Mwmr -> atomic cl ~name ~codec ~init
        | Reg.Swmr { writer } -> regular cl ~name ~codec ~init ~writer);
    mk_areg =
      (fun ~name ~codec ~init ~writer ~reader ~policy ~write_effect ->
        abortable cl ~name ~codec ~init ~writer ~reader ~policy ~write_effect);
  }
