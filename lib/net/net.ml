(* Deterministic simulated message-passing network. See net.mli for the
   model and the determinism contract. *)

open Tbwf_sim

type event =
  | Ev_partition of { at : int; side : int list }
  | Ev_heal of { at : int }
  | Ev_delay of {
      from_ : int;
      until : int;
      extra0 : float;
      extra1 : float;
      node : int option;
    }
  | Ev_drop of {
      from_ : int;
      until : int;
      rate0 : float;
      rate1 : float;
      node : int option;
    }

type config = {
  replicas : int;
  base_latency : int;
  jitter : int;
  retransmit_every : int;
  events : event list;
}

let default_config =
  {
    replicas = 3;
    base_latency = 3;
    jitter = 2;
    retransmit_every = 12;
    events = [];
  }

let majority config = (config.replicas / 2) + 1

let validate_event = function
  | Ev_partition { at; side } ->
    if at < 0 then Error "partition: at < 0"
    else if side = [] then Error "partition: empty side"
    else Ok ()
  | Ev_heal { at } -> if at < 0 then Error "heal: at < 0" else Ok ()
  | Ev_delay { from_; until; extra0; extra1; _ } ->
    if from_ < 0 || until < from_ then Error "delay: bad window"
    else if extra0 < 0. || extra1 < 0. then Error "delay: negative extra"
    else Ok ()
  | Ev_drop { from_; until; rate0; rate1; _ } ->
    if from_ < 0 || until < from_ then Error "drop: bad window"
    else if rate0 < 0. || rate0 > 1. || rate1 < 0. || rate1 > 1. then
      Error "drop: rate outside [0,1]"
    else Ok ()

let validate_config config =
  if config.replicas < 1 then Error "config: replicas < 1"
  else if config.base_latency < 1 then Error "config: base_latency < 1"
  else if config.jitter < 0 then Error "config: jitter < 0"
  else if config.retransmit_every < 1 then Error "config: retransmit_every < 1"
  else
    List.fold_left
      (fun acc ev -> match acc with Error _ -> acc | Ok () -> validate_event ev)
      (Ok ()) config.events

(* --- pure timeline queries ------------------------------------------------ *)

let event_time = function
  | Ev_partition { at; _ } | Ev_heal { at } -> at
  | Ev_delay { from_; _ } | Ev_drop { from_; _ } -> from_

let sorted_events config =
  List.stable_sort (fun a b -> compare (event_time a) (event_time b))
    config.events

let link_matches (node : int option) (a : int) b =
  match node with None -> true | Some p -> p = a || p = b

let interp ~from_ ~until ~v0 ~v1 at =
  if until <= from_ then v1
  else
    v0
    +. (v1 -. v0)
       *. float_of_int (at - from_)
       /. float_of_int (until - from_)

(* The three link queries as folds over the events sorted by time. They
   allocate nothing on a link no event touches, since they run at every
   send. The last partition/heal with [at' <= at] wins (stable sort, so
   same-step entries resolve in list order). *)
let rec cut_in events ~at a b cut =
  match events with
  | [] -> cut
  | Ev_partition { at = t; side } :: rest when t <= at ->
    cut_in rest ~at a b (List.mem a side <> List.mem b side)
  | Ev_heal { at = t } :: rest when t <= at -> cut_in rest ~at a b false
  | _ :: rest -> cut_in rest ~at a b cut

let rec survive_in events ~at a b survive =
  match events with
  | [] -> survive
  | Ev_drop { from_; until; rate0; rate1; node } :: rest
    when from_ <= at && at < until && link_matches node a b ->
    let r =
      Float.min 1. (Float.max 0. (interp ~from_ ~until ~v0:rate0 ~v1:rate1 at))
    in
    survive_in rest ~at a b (survive *. (1. -. r))
  | _ :: rest -> survive_in rest ~at a b survive

let rec extra_in events ~at a b extra =
  match events with
  | [] -> extra
  | Ev_delay { from_; until; extra0; extra1; node } :: rest
    when from_ <= at && at < until && link_matches node a b ->
    extra_in rest ~at a b
      (extra +. Float.max 0. (interp ~from_ ~until ~v0:extra0 ~v1:extra1 at))
  | _ :: rest -> extra_in rest ~at a b extra

let extra_delay_in events ~at a b =
  int_of_float (Float.round (extra_in events ~at a b 0.))

let cut_at config ~at a b = cut_in (sorted_events config) ~at a b false

let drop_rate_at config ~at a b =
  1. -. survive_in (sorted_events config) ~at a b 1.

let extra_delay_at config ~at a b =
  extra_delay_in (sorted_events config) ~at a b

(* --- transport ------------------------------------------------------------ *)

type msg = {
  delivery : int;
  seq : int;  (** global send order, the delivery tie-break *)
  src : int;
  key : int;
  payload : Value.t;
}

let catch_all = -1

(* One destination's pending messages in [msgs.(0 .. len-1)], sorted by
   (delivery, seq). Every post carries a larger [seq] than any message
   already queued, so it goes in after every message due no later than it,
   found by walking in from the tail; and the messages due at a step are a
   prefix of the queue. *)
module Inbox = struct
  type t = { mutable msgs : msg array; mutable len : int }

  let vacant =
    { delivery = max_int; seq = 0; src = -1; key = -1; payload = Value.Unit }

  let create () = { msgs = [||]; len = 0 }

  let post q ~delivery ~seq ~src ~key payload =
    if q.len = Array.length q.msgs then begin
      let grown = Array.make (Int.max 8 (2 * q.len)) vacant in
      Array.blit q.msgs 0 grown 0 q.len;
      q.msgs <- grown
    end;
    let msgs = q.msgs in
    let j = ref q.len in
    while !j > 0 && msgs.(!j - 1).delivery > delivery do
      msgs.(!j) <- msgs.(!j - 1);
      decr j
    done;
    msgs.(!j) <- { delivery; seq; src; key; payload };
    q.len <- q.len + 1

  let nothing = Value.List []

  (* Remove everything due at [at] for [key] or an older key; stale-key
     messages (replies to operations that already completed) are
     discarded, which is the queue's garbage collection. Returns the
     removed messages for exactly [key] (all of them for [catch_all]), in
     queue order. *)
  let poll q ~at ~key =
    let msgs = q.msgs in
    if q.len = 0 || msgs.(0).delivery > at then nothing
    else begin
      let due = ref 0 in
      while !due < q.len && msgs.(!due).delivery <= at do incr due done;
      let out = ref [] in
      for i = !due - 1 downto 0 do
        let m = msgs.(i) in
        if key = catch_all || m.key = key then
          out :=
            Value.Pair (Value.Int m.src, Value.Pair (Value.Int m.key, m.payload))
            :: !out
      done;
      let kept = ref 0 in
      for i = 0 to !due - 1 do
        let m = msgs.(i) in
        if not (key = catch_all || m.key <= key) then begin
          msgs.(!kept) <- m;
          incr kept
        end
      done;
      let len = !kept + q.len - !due in
      Array.blit msgs !due msgs !kept (q.len - !due);
      Array.fill msgs len (q.len - len) vacant;
      q.len <- len;
      match !out with [] -> nothing | l -> Value.List l
    end

  let pending q =
    List.init q.len (fun i ->
        let m = q.msgs.(i) in
        m.delivery, m.seq, m.src, m.key, m.payload)
end

type t = {
  rt : Runtime.t;
  config : config;
  events : event list;  (** sorted by time *)
  mutable inboxes : Shared.t array;
  queues : Inbox.t array;  (** pending per destination *)
  mutable seq : int;  (** global send order *)
  keys : int array;  (** per-pid fresh-key counters *)
}

(* The inbox object of [dst]. A post ([Pair (Int key, payload)]) admits a
   message from ctx.pid: the loss/latency decisions happen here, at the
   send's response step, off the object rng — see the determinism contract
   in net.mli. A poll ([Int key]) returns (and removes) the due messages
   for a demux key. *)
let inbox_respond t ~dst ctx =
  match ctx.Shared.op with
  | Value.Pair (Value.Int key, payload) ->
    let src = ctx.Shared.pid in
    let at = ctx.Shared.respond_step in
    let config = t.config and events = t.events in
    let jitter =
      if config.jitter > 0 then Rng.int ctx.Shared.rng (config.jitter + 1)
      else 0
    in
    let extra = extra_delay_in events ~at src dst in
    let latency = Int.max 1 (config.base_latency + jitter + extra) in
    let rate = 1. -. survive_in events ~at src dst 1. in
    let lost =
      (* fixed draw order: jitter above, then the loss draw *)
      cut_in events ~at src dst false
      || (rate > 0. && Rng.bool ctx.Shared.rng rate)
    in
    if Runtime.telemetry_active t.rt then
      Runtime.signal t.rt ~pid:src
        (Sink.Message { src; dst; latency; dropped = lost });
    if not lost then begin
      t.seq <- t.seq + 1;
      Inbox.post t.queues.(dst) ~delivery:(at + latency) ~seq:t.seq ~src ~key
        payload
    end;
    Value.Unit
  | Value.Int key -> Inbox.poll t.queues.(dst) ~at:ctx.Shared.respond_step ~key
  | _ -> Value.Fail

let create rt ~config =
  (match validate_config config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Net.create: " ^ msg));
  let nodes = Runtime.n rt in
  if config.replicas >= nodes then
    invalid_arg "Net.create: replicas >= Runtime.n (no client pids left)";
  let t =
    {
      rt;
      config;
      events = sorted_events config;
      inboxes = [||];
      queues = Array.init nodes (fun _ -> Inbox.create ());
      seq = 0;
      keys = Array.make nodes 0;
    }
  in
  t.inboxes <-
    Array.init nodes (fun dst ->
        Runtime.register_object rt ~name:(Fmt.str "inbox[%d]" dst)
          ~respond:(inbox_respond t ~dst));
  t

let config t = t.config
let n_clients t = Runtime.n t.rt - t.config.replicas
let replica_pid t r = n_clients t + r

let fresh_key t ~pid =
  let k = t.keys.(pid) in
  t.keys.(pid) <- k + 1;
  k

let inbox t pid = t.inboxes.(pid)
let post_op ~key payload = Value.Pair (Value.Int key, payload)
let poll_all = Value.Int catch_all
let poll_op ~key = if key = catch_all then poll_all else Value.Int key

let rec deliver f = function
  | [] -> ()
  | Value.Pair (Value.Int src, Value.Pair (Value.Int key, payload)) :: rest ->
    f src key payload;
    deliver f rest
  | _ -> assert false

let send t ~dst ~key payload =
  ignore (Runtime.call t.inboxes.(dst) (post_op ~key payload))

let poll t ~key f =
  match Runtime.call t.inboxes.(Runtime.running t.rt) (poll_op ~key) with
  | Value.List msgs -> deliver f msgs
  | _ -> assert false
