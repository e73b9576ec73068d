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

  let server t ~r () =
    let reply src key payload =
      Net.send t.net ~dst:src ~key (process t ~r payload)
    in
    while true do
      Net.poll t.net ~key:Net.catch_all reply
    done

  let create rt ~net =
    let replicas = (Net.config net).Net.replicas in
    let t = { rt; net; replicas; states = [||]; next_rid = 0 } in
    for r = 0 to replicas - 1 do
      Runtime.spawn ~layer:Sink.Other rt
        ~pid:(Net.replica_pid net r)
        ~name:(Fmt.str "replica[%d]" r)
        (server t ~r)
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

(* Broadcast [request] under a fresh key and block (polling, with
   retransmission to silent replicas) until a majority of distinct
   replicas answered with something [decode] accepts. Returns the
   accepted replies, one slot per replica. *)
let quorum (cl : Cluster.t) ~request ~decode =
  let net = cl.Cluster.net in
  let config = Net.config net in
  let replicas = config.Net.replicas and majority = Net.majority config in
  let key = Net.fresh_key net ~pid:(Runtime.running cl.Cluster.rt) in
  let replies = Array.make replicas None in
  let count = ref 0 in
  let broadcast ~missing_only =
    for r = 0 to replicas - 1 do
      if (not missing_only) || Option.is_none replies.(r) then
        Net.send net ~dst:(Net.replica_pid net r) ~key request
    done
  in
  let accept src _key payload =
    let r = src - Net.n_clients net in
    if r >= 0 && r < replicas && Option.is_none replies.(r) then
      match decode payload with
      | Some x ->
        replies.(r) <- Some x;
        incr count
      | None -> ()
  in
  broadcast ~missing_only:false;
  (* polls left until the next retransmission *)
  let countdown = ref config.Net.retransmit_every in
  while !count < majority do
    Net.poll net ~key accept;
    decr countdown;
    if !countdown = 0 then begin
      countdown := config.Net.retransmit_every;
      if !count < majority then broadcast ~missing_only:true
    end
  done;
  replies

let fold_replies replies ~init ~f =
  Array.fold_left
    (fun acc reply -> match reply with Some x -> f acc x | None -> acc)
    init replies

(* --- ABD-style MWMR atomic ------------------------------------------------ *)

let atomic cl ~name ~codec ~init =
  let rid = alloc cl (codec.Codec.enc init) in
  let open Value in
  let decode_query = function
    | List [ Str "aqr"; Int rid'; Int ts; Int wid; v ] when rid' = rid ->
      Some (ts, wid, v)
    | _ -> None
  in
  let decode_ack = function
    | List [ Str "awr"; Int rid' ] when rid' = rid -> Some ()
    | _ -> None
  in
  let query () =
    let replies = quorum cl ~request:(List [ Str "aq"; Int rid ]) ~decode:decode_query in
    fold_replies replies
      ~init:(0, -1, codec.Codec.enc init)
      ~f:(fun ((ts, wid, _) as best) ((ts', wid', _) as reply) ->
        if tag_gt ts' wid' ts wid then reply else best)
  in
  let update (ts, wid, v) =
    ignore
      (quorum cl
         ~request:(List [ Str "aw"; Int rid; Int ts; Int wid; v ])
         ~decode:decode_ack)
  in
  let read () =
    (* phase 1: highest tag from a majority; phase 2: write it back, so
       no later read can observe an older tag *)
    let (_, _, v) as tag = query () in
    update tag;
    codec.Codec.dec v
  in
  let write x =
    let ts, _, _ = query () in
    update (ts + 1, Runtime.running cl.Cluster.rt, codec.Codec.enc x)
  in
  let peek () =
    let best =
      Array.fold_left
        (fun (best : rstate) s ->
          if tag_gt s.ts s.wid best.ts best.wid then s else best)
        { ts = 0; wid = -1; sn = 0; v = codec.Codec.enc init }
        cl.Cluster.states.(rid)
    in
    codec.Codec.dec best.v
  in
  {
    Reg.name;
    read;
    write;
    peek;
    obj = None;
    enc = codec.Codec.enc;
    dec = codec.Codec.dec;
  }

(* --- time-efficient SWMR regular ----------------------------------------- *)

let regular cl ~name ~codec ~init ~writer =
  let rid = alloc cl (codec.Codec.enc init) in
  let rt = cl.Cluster.rt in
  let open Value in
  let next_sn = ref 0 in
  let decode_ack = function
    | List [ Str "rwr"; Int rid'; Int _sn ] when rid' = rid -> Some ()
    | _ -> None
  in
  let decode_read = function
    | List [ Str "rqr"; Int rid'; Int sn; v ] when rid' = rid -> Some (sn, v)
    | _ -> None
  in
  let write x =
    if Runtime.running rt <> writer then
      invalid_arg (Printf.sprintf "Mp_reg %s: pid %d is not the writer" name
                     (Runtime.running rt));
    incr next_sn;
    ignore
      (quorum cl
         ~request:(List [ Str "rw"; Int rid; Int !next_sn; codec.Codec.enc x ])
         ~decode:decode_ack)
  in
  let read () =
    let replies = quorum cl ~request:(List [ Str "rq"; Int rid ]) ~decode:decode_read in
    let _, v =
      fold_replies replies
        ~init:(0, codec.Codec.enc init)
        ~f:(fun (sn, v) (sn', v') -> if sn' > sn then (sn', v') else (sn, v))
    in
    codec.Codec.dec v
  in
  let peek () =
    let best =
      Array.fold_left
        (fun (best : rstate) s -> if s.sn > best.sn then s else best)
        { ts = 0; wid = -1; sn = 0; v = codec.Codec.enc init }
        cl.Cluster.states.(rid)
    in
    codec.Codec.dec best.v
  in
  {
    Reg.name;
    read;
    write;
    peek;
    obj = None;
    enc = codec.Codec.enc;
    dec = codec.Codec.dec;
  }

(* --- SWSR abortable adapter ----------------------------------------------- *)

let abortable cl ~name ~codec ~init ~writer ~reader ~policy ~write_effect =
  let rt = cl.Cluster.rt in
  let base = regular cl ~name ~codec ~init ~writer in
  let write_effect =
    Option.value write_effect ~default:(Abort_policy.Effect_random 0.5)
  in
  (* The abort is decided before any message leaves: synthesize a solo
     context at the current step, so Unconditional fault policies (which
     key on respond_step and the object stream) behave exactly as on
     shared memory, while contention-gated policies never fire (legal —
     aborting is a permission, not an obligation). *)
  let decide op =
    let step = Runtime.now rt in
    let ctx =
      {
        Shared.pid = Runtime.running rt;
        respond_step = step;
        overlapped = false;
        step_contended = false;
        rng = Runtime.obj_rng rt;
        op;
      }
    in
    Abort_policy.should_abort policy ~contended:false ctx
  in
  let signal_abort () =
    if Runtime.telemetry_active rt then
      Runtime.signal rt ~pid:(Runtime.running rt) Sink.Abort_decision
  in
  let write x =
    if Runtime.running rt <> writer then
      invalid_arg (Printf.sprintf "Mp_reg %s: pid %d is not the writer" name
                     (Runtime.running rt));
    if decide (Value.write_op (codec.Codec.enc x)) then begin
      signal_abort ();
      if Abort_policy.write_takes_effect write_effect (Runtime.obj_rng rt) then
        base.Reg.write x;
      false
    end
    else begin
      base.Reg.write x;
      true
    end
  in
  let read () =
    if Runtime.running rt <> reader then
      invalid_arg (Printf.sprintf "Mp_reg %s: pid %d is not the reader" name
                     (Runtime.running rt));
    if decide Value.read_op then begin
      signal_abort ();
      None
    end
    else Some (base.Reg.read ())
  in
  {
    Reg.Abortable.name;
    read;
    write;
    peek = base.Reg.peek;
    obj = None;
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
