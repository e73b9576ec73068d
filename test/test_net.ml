(* The message-passing substrate: the simulated network's transport and
   fault timeline, the quorum register emulations (including the
   crash-mid-quorum and heal-mid-operation edge cases), and the
   determinism contract of full stacks built over it. *)

open Tbwf_sim
open Tbwf_registers
open Tbwf_net

(* --- pure timeline queries ------------------------------------------------ *)

let cfg ?(replicas = 3) ?(base_latency = 3) ?(jitter = 2)
    ?(retransmit_every = 12) ?(events = []) () =
  { Net.replicas; base_latency; jitter; retransmit_every; events }

let test_validate () =
  let ok c = Result.is_ok (Net.validate_config c) in
  Alcotest.(check bool) "default ok" true (ok Net.default_config);
  Alcotest.(check bool) "no replicas" false (ok (cfg ~replicas:0 ()));
  Alcotest.(check bool) "negative jitter" false (ok (cfg ~jitter:(-1) ()));
  Alcotest.(check bool)
    "zero base latency" false
    (ok (cfg ~base_latency:0 ()))

let test_partition_timeline () =
  let c =
    cfg
      ~events:
        [
          Net.Ev_partition { at = 100; side = [ 0 ] };
          Net.Ev_heal { at = 200 };
          Net.Ev_partition { at = 300; side = [ 1; 2 ] };
        ]
      ()
  in
  Alcotest.(check bool) "before: open" false (Net.cut_at c ~at:50 0 3);
  Alcotest.(check bool) "cut from side" true (Net.cut_at c ~at:150 0 3);
  Alcotest.(check bool)
    "complement stays connected" false
    (Net.cut_at c ~at:150 1 3);
  Alcotest.(check bool) "healed" false (Net.cut_at c ~at:250 0 3);
  Alcotest.(check bool) "last cut wins" true (Net.cut_at c ~at:350 1 3);
  Alcotest.(check bool)
    "within new side: open" false
    (Net.cut_at c ~at:350 1 2)

let test_drop_and_delay_interpolation () =
  let c =
    cfg
      ~events:
        [
          Net.Ev_drop
            { from_ = 100; until = 300; rate0 = 0.0; rate1 = 1.0; node = None };
          Net.Ev_delay
            {
              from_ = 100;
              until = 300;
              extra0 = 0.0;
              extra1 = 10.0;
              node = Some 2;
            };
        ]
      ()
  in
  Alcotest.(check (float 1e-9)) "before window" 0.0 (Net.drop_rate_at c ~at:50 0 3);
  Alcotest.(check (float 1e-9)) "window start" 0.0 (Net.drop_rate_at c ~at:100 0 3);
  Alcotest.(check (float 1e-9)) "midpoint" 0.5 (Net.drop_rate_at c ~at:200 0 3);
  Alcotest.(check (float 1e-9)) "after window" 0.0 (Net.drop_rate_at c ~at:300 0 3);
  Alcotest.(check int) "delay matches node" 5 (Net.extra_delay_at c ~at:200 2 4);
  Alcotest.(check int) "delay other link" 0 (Net.extra_delay_at c ~at:200 0 4)

(* --- link queries against the list-fold reference ----------------------- *)

let horizon = 80
let nodes = 5

(* Event lists over [0, horizon]: partitions (sides may name a pid outside
   the link range), heals, same-step partition/heal pairs in either order,
   and delay and drop windows — some empty, many overlapping, some scoped
   to one node — with fractional ends so interpolation rounds. *)
let gen_events =
  let open QCheck.Gen in
  let step = int_range 0 horizon in
  let node = opt ~ratio:0.5 (int_range 0 (nodes - 1)) in
  let amount hi = oneof [ return 0.; float_range 0. hi ] in
  let window =
    let* from_ = step and* len = int_range 0 (horizon / 2) and* node = node in
    return (from_, from_ + len, node)
  in
  let side = list_size (int_range 1 3) (int_range 0 (nodes + 1)) in
  let event =
    frequency
      [
        ( 2,
          let* at = step and* side = side in
          return [ Net.Ev_partition { at; side } ] );
        (1, map (fun at -> [ Net.Ev_heal { at } ]) step);
        ( 1,
          let* at = step and* side = side and* heal_first = bool in
          let p = Net.Ev_partition { at; side } and h = Net.Ev_heal { at } in
          return (if heal_first then [ h; p ] else [ p; h ]) );
        ( 3,
          let* from_, until, node = window
          and* extra0 = amount 9.
          and* extra1 = amount 9. in
          return [ Net.Ev_delay { from_; until; extra0; extra1; node } ] );
        ( 3,
          let* from_, until, node = window
          and* rate0 = amount 1.
          and* rate1 = amount 1. in
          return [ Net.Ev_drop { from_; until; rate0; rate1; node } ] );
      ]
  in
  map List.concat (list_size (int_range 0 10) event)

let pp_event ppf = function
  | Net.Ev_partition { at; side } ->
    Fmt.pf ppf "partition@%d[%a]" at Fmt.(list ~sep:comma int) side
  | Net.Ev_heal { at } -> Fmt.pf ppf "heal@%d" at
  | Net.Ev_delay { from_; until; extra0; extra1; node } ->
    Fmt.pf ppf "delay[%d,%d) %h->%h %a" from_ until extra0 extra1
      Fmt.(option ~none:(any "*") int) node
  | Net.Ev_drop { from_; until; rate0; rate1; node } ->
    Fmt.pf ppf "drop[%d,%d) %h->%h %a" from_ until rate0 rate1
      Fmt.(option ~none:(any "*") int) node

(* The link queries as they were written before they became
   allocation-free recursive folds: [List.fold_left] closures over the
   events sorted by time, the partition side kept as an option. *)
module Reference = struct
  let sorted events =
    List.stable_sort
      (fun a b ->
        let time = function
          | Net.Ev_partition { at; _ } | Net.Ev_heal { at } -> at
          | Net.Ev_delay { from_; _ } | Net.Ev_drop { from_; _ } -> from_
        in
        compare (time a) (time b))
      events

  let on_link node a b =
    match node with None -> true | Some p -> p = a || p = b

  let interp ~from_ ~until ~v0 ~v1 at =
    if until <= from_ then v1
    else
      v0
      +. (v1 -. v0) *. float_of_int (at - from_) /. float_of_int (until - from_)

  let cut events ~at a b =
    match
      List.fold_left
        (fun acc ev ->
          match ev with
          | Net.Ev_partition { at = t; side } when t <= at -> Some side
          | Net.Ev_heal { at = t } when t <= at -> None
          | _ -> acc)
        None (sorted events)
    with
    | None -> false
    | Some side -> List.mem a side <> List.mem b side

  let drop_rate events ~at a b =
    1.
    -. List.fold_left
         (fun acc ev ->
           match ev with
           | Net.Ev_drop { from_; until; rate0; rate1; node }
             when from_ <= at && at < until && on_link node a b ->
             let r =
               Float.min 1.
                 (Float.max 0. (interp ~from_ ~until ~v0:rate0 ~v1:rate1 at))
             in
             acc *. (1. -. r)
           | _ -> acc)
         1. (sorted events)

  let extra_delay events ~at a b =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Net.Ev_delay { from_; until; extra0; extra1; node }
          when from_ <= at && at < until && on_link node a b ->
          acc +. Float.max 0. (interp ~from_ ~until ~v0:extra0 ~v1:extra1 at)
        | _ -> acc)
      0. (sorted events)
    |> Float.round |> int_of_float
end

let qcheck_link_queries_match_reference =
  QCheck.Test.make ~name:"link queries equal the list-fold reference"
    ~count:300
    (QCheck.make ~print:(Fmt.str "%a" Fmt.(list ~sep:sp pp_event)) gen_events)
    (fun events ->
      let c = cfg ~events () in
      for at = 0 to horizon do
        for a = 0 to nodes - 1 do
          for b = 0 to nodes - 1 do
            let fail what =
              QCheck.Test.fail_reportf "%s at %d on %d-%d" what at a b
            in
            if Net.cut_at c ~at a b <> Reference.cut events ~at a b then
              fail "cut";
            if
              Int64.bits_of_float (Net.drop_rate_at c ~at a b)
              <> Int64.bits_of_float (Reference.drop_rate events ~at a b)
            then fail "drop rate";
            if
              Net.extra_delay_at c ~at a b
              <> Reference.extra_delay events ~at a b
            then fail "extra delay"
          done
        done
      done;
      true)

(* --- transport ------------------------------------------------------------ *)

(* Two clients + 3 replicas; client 1 posts to client 0, who polls until
   delivery. Exercises send/poll, latency bounds, and key demux. *)
let test_send_poll () =
  let config = cfg () in
  let rt = Runtime.create ~seed:7L ~n:5 () in
  let net = Net.create rt ~config in
  let got = ref [] in
  let key = Net.fresh_key net ~pid:0 in
  Runtime.spawn rt ~pid:1 ~name:"sender" (fun () ->
      Net.send net ~dst:0 ~key (Value.Int 42);
      Net.send net ~dst:0 ~key (Value.Int 43));
  Runtime.spawn rt ~pid:0 ~name:"receiver" (fun () ->
      while List.length !got < 2 do
        Net.poll net ~key (fun src k v -> got := (src, k, v) :: !got)
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:2_000;
  Runtime.stop rt;
  Alcotest.(check int) "both delivered" 2 (List.length !got);
  List.iter
    (fun (src, k, _) ->
      Alcotest.(check int) "from sender" 1 src;
      Alcotest.(check int) "key echoed" key k)
    !got

(* A full partition of the receiver drops everything; after the heal,
   retransmitted messages get through. *)
let test_partition_drops_heal_delivers () =
  let config =
    cfg
      ~events:
        [ Net.Ev_partition { at = 0; side = [ 0 ] }; Net.Ev_heal { at = 400 } ]
      ()
  in
  let rt = Runtime.create ~seed:7L ~n:5 () in
  let net = Net.create rt ~config in
  let got = ref 0 in
  let before_heal = ref (-1) in
  let key = Net.fresh_key net ~pid:0 in
  Runtime.spawn rt ~pid:1 ~name:"sender" (fun () ->
      (* keep retransmitting; sends before the heal are cut at send time *)
      while !got = 0 do
        Net.send net ~dst:0 ~key (Value.Int 1);
        Runtime.yield ()
      done);
  Runtime.spawn rt ~pid:0 ~name:"receiver" (fun () ->
      while !got = 0 do
        Net.poll net ~key (fun _ _ _ -> incr got);
        if !got > 0 && Runtime.now rt < 400 then before_heal := Runtime.now rt
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:3_000;
  Runtime.stop rt;
  Alcotest.(check bool) "delivered after heal" true (!got > 0);
  Alcotest.(check int) "nothing before heal" (-1) !before_heal

(* --- inbox queue against the list-based poll ------------------------------- *)

(* The inbox queue as it was: an unordered list, newest first, that every
   poll partitioned, filtered, sorted and mapped. *)
module Inbox_ref = struct
  type msg = { delivery : int; seq : int; src : int; key : int; payload : Value.t }

  let msg_order a b = compare (a.delivery, a.seq) (b.delivery, b.seq)

  let post q ~delivery ~seq ~src ~key payload =
    q := { delivery; seq; src; key; payload } :: !q

  let poll q ~at ~key =
    let due, rest =
      List.partition
        (fun m -> m.delivery <= at && (key = Net.catch_all || m.key <= key))
        !q
    in
    q := rest;
    let due = List.filter (fun m -> key = Net.catch_all || m.key = key) due in
    let due = List.sort msg_order due in
    Value.List
      (List.map
         (fun m ->
           Value.Pair (Value.Int m.src, Value.Pair (Value.Int m.key, m.payload)))
         due)

  let pending q =
    List.map
      (fun m -> m.delivery, m.seq, m.src, m.key, m.payload)
      (List.sort msg_order !q)
end

(* Random post/poll sequences on one destination: latencies of 1–4 steps
   from steps advancing by 0–2, so many messages share a delivery step;
   keys 0–5 and polls for a key, an older key (stale messages stay queued
   for a newer poll to discard) or [catch_all]. Every poll result and the
   queue left behind must match the reference. *)
let test_inbox_matches_reference () =
  let pending_t =
    Alcotest.(list (testable
      (fun ppf (d, s, src, k, v) -> Fmt.pf ppf "(%d,%d,%d,%d,%a)" d s src k Value.pp v)
      (fun (d, s, src, k, v) (d', s', src', k', v') ->
        d = d' && s = s' && src = src' && k = k' && Value.equal v v')))
  in
  for run = 0 to 199 do
    let g = Rng.create (Int64.of_int run) in
    let queue = Net.Inbox.create () and model = ref [] in
    let at = ref 0 and seq = ref 0 in
    for op = 1 to 400 do
      at := !at + Rng.int g 3;
      if Rng.bool g 0.55 then begin
        incr seq;
        let delivery = !at + 1 + Rng.int g 4 and src = Rng.int g 5 in
        let key = Rng.int g 6 and payload = Value.Int !seq in
        Net.Inbox.post queue ~delivery ~seq:!seq ~src ~key payload;
        Inbox_ref.post model ~delivery ~seq:!seq ~src ~key payload
      end
      else begin
        let key = if Rng.int g 4 = 0 then Net.catch_all else Rng.int g 6 in
        let got = Net.Inbox.poll queue ~at:!at ~key in
        let want = Inbox_ref.poll model ~at:!at ~key in
        if not (Value.equal got want) then
          Alcotest.failf "run %d op %d: poll %d at %d gave %a, reference %a" run op
            key !at Value.pp got Value.pp want
      end;
      Alcotest.check pending_t
        (Fmt.str "run %d op %d: queue" run op)
        (Inbox_ref.pending model) (Net.Inbox.pending queue)
    done
  done

(* --- per-message cost ------------------------------------------------------ *)

(* Minor-heap words per step of [body] running alone on pid 0 of a
   two-pid runtime over a fault-free network with one replica (pid 1),
   measured after a warm-up. *)
let net_words_per_step body =
  let rt = Runtime.create ~n:2 () in
  let net = Net.create rt ~config:(cfg ~replicas:1 ()) in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () -> body net);
  let policy = Policy.round_robin () in
  Runtime.run rt ~policy ~steps:2_000;
  let steps = 20_000 in
  let before = Gc.minor_words () in
  Runtime.run rt ~policy ~steps;
  let words = Gc.minor_words () -. before in
  Runtime.stop rt;
  words /. float_of_int steps

let yield_words () =
  net_words_per_step (fun _ ->
      while true do
        Runtime.yield ()
      done)

(* Pinned as words added to a yield-only step, like test_runtime's call
   step guard. What any call adds is 18 words: the [Call] effect (4), the
   pending record (7) and the context (7). The link queries of a
   fault-free network and the rng draws allocate nothing. Both loops below
   pass a constant key (and payload): [Net.send]/[Net.poll] and the
   operation builders inline into the loop, so the operation value is a
   static block built once, not a per-step allocation. A caller with a
   run-time key or payload adds the operation's words on top: 5 for a
   post ([Pair] 3, [Int] 2), 2 for a poll ([Int]). *)
let test_post_step_allocation_guard () =
  (* Every step answers one post and sends the next: 18, plus the queued
     message (6). Nobody polls pid 1's inbox: the warm-up grows its
     queue's array past the largest block the minor heap takes, so the
     array's later growth is not counted here. *)
  let post =
    net_words_per_step (fun net ->
        while true do
          Net.send net ~dst:1 ~key:0 Value.Unit
        done)
  in
  Alcotest.(check (float 0.0)) "words a post adds to a step" 24.0
    (post -. yield_words ())

let test_empty_poll_step_allocation_guard () =
  (* 18: the call alone. The answer is the shared empty list, and the pid
     comes from [Runtime.running], not an effect. *)
  let poll =
    net_words_per_step (fun net ->
        while true do
          Net.poll net ~key:0 (fun _ _ _ -> ())
        done)
  in
  Alcotest.(check (float 0.0)) "words an empty poll adds to a step" 18.0
    (poll -. yield_words ())

(* --- quorum registers ----------------------------------------------------- *)

let client_pids = [ 0; 1 ]
let mp_runtime ?(seed = 11L) ?(events = []) () =
  let config = cfg ~events () in
  let rt = Runtime.create ~seed ~n:(2 + config.Net.replicas) () in
  let net = Net.create rt ~config in
  let cluster = Mp_reg.Cluster.create rt ~net in
  rt, cluster

(* One writer incrementing, one reader: reads must be monotonic (ABD's
   read-back phase), and the final peek must be the last completed
   write. *)
let test_abd_monotonic_reads () =
  let rt, cluster = mp_runtime () in
  let r = Mp_reg.atomic cluster ~name:"R" ~codec:Codec.int ~init:0 in
  let written = ref 0 and seen = ref [] in
  Runtime.spawn rt ~pid:0 ~name:"writer" (fun () ->
      for k = 1 to 50 do
        Reg.write r k;
        written := k
      done);
  Runtime.spawn rt ~pid:1 ~name:"reader" (fun () ->
      while true do
        seen := Reg.read r :: !seen
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:60_000;
  Runtime.stop rt;
  ignore client_pids;
  let seen = List.rev !seen in
  Alcotest.(check bool) "writer made progress" true (!written >= 10);
  Alcotest.(check bool) "reader made progress" true (List.length seen >= 10);
  let monotonic =
    fst
      (List.fold_left
         (fun (ok, prev) v -> (ok && v >= prev, v))
         (true, min_int) seen)
  in
  Alcotest.(check bool) "reads monotonic" true monotonic;
  Alcotest.(check int) "peek sees last write" !written (r.Reg.peek ())

(* Satellite: the writer crashes at an arbitrary step — including between
   ABD phase 1 (timestamp query) and phase 2 (the actual write round).
   Whatever the crash point, readers must stay monotonic and keep
   completing reads afterwards. *)
let qcheck_writer_crash_mid_quorum =
  QCheck.Test.make ~name:"ABD: writer crash at any step keeps reads monotonic"
    ~count:40
    QCheck.(int_range 50 4_000)
    (fun crash_step ->
      let rt, cluster = mp_runtime ~seed:23L () in
      let r = Mp_reg.atomic cluster ~name:"R" ~codec:Codec.int ~init:0 in
      let seen = ref [] and reads_after_crash = ref 0 in
      Runtime.crash_at rt ~pid:0 ~step:crash_step;
      Runtime.spawn rt ~pid:0 ~name:"writer" (fun () ->
          for k = 1 to 1_000 do
            Reg.write r k
          done);
      Runtime.spawn rt ~pid:1 ~name:"reader" (fun () ->
          while true do
            let v = Reg.read r in
            seen := v :: !seen;
            if Runtime.now rt > crash_step then incr reads_after_crash
          done);
      Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:12_000;
      Runtime.stop rt;
      let seen = List.rev !seen in
      let monotonic =
        fst
          (List.fold_left
             (fun (ok, prev) v -> (ok && v >= prev, v))
             (true, min_int) seen)
      in
      monotonic && !reads_after_crash > 0)

(* Minority replica crash: quorums shrink to the live majority and every
   register kind keeps operating. *)
let test_minority_replica_crash_tolerated () =
  let rt, cluster = mp_runtime () in
  let a = Mp_reg.atomic cluster ~name:"A" ~codec:Codec.int ~init:0 in
  let s =
    Mp_reg.regular cluster ~name:"S" ~codec:Codec.int ~init:0 ~writer:0
  in
  (* replica 2 is pid 4 *)
  Runtime.crash_at rt ~pid:4 ~step:500;
  let done_ops = ref 0 in
  Runtime.spawn rt ~pid:0 ~name:"writer" (fun () ->
      for k = 1 to 40 do
        Reg.write a k;
        Reg.write s k;
        done_ops := k
      done);
  Runtime.spawn rt ~pid:1 ~name:"reader" (fun () ->
      while true do
        ignore (Reg.read a);
        ignore (Reg.read s)
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:60_000;
  Runtime.stop rt;
  Alcotest.(check int) "all writes completed despite the crash" 40 !done_ops

(* Satellite: a partition isolating a replica *majority* blocks quorum
   operations mid-flight; the heal lets the same in-flight operations
   complete via retransmission — across register kinds. *)
let test_partition_heals_mid_operation () =
  (* replicas are pids 2,3,4: cutting {2,3} leaves only replica 4
     reachable — no quorum — from step 300 until the heal at 2000. *)
  let events =
    [
      Net.Ev_partition { at = 300; side = [ 2; 3 ] }; Net.Ev_heal { at = 2_000 };
    ]
  in
  let rt, cluster = mp_runtime ~events () in
  let a = Mp_reg.atomic cluster ~name:"A" ~codec:Codec.int ~init:0 in
  let s =
    Mp_reg.regular cluster ~name:"S" ~codec:Codec.int ~init:0 ~writer:0
  in
  let ab =
    Mp_reg.abortable cluster ~name:"B" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Always ~write_effect:None
  in
  let log = ref [] in
  let record k = log := (k, Runtime.now rt) :: !log in
  Runtime.spawn rt ~pid:0 ~name:"writer" (fun () ->
      for k = 1 to 30 do
        Reg.write a k;
        record `A;
        Reg.write s k;
        record `S;
        ignore (Reg.Abortable.write ab k);
        record `B
      done);
  Runtime.spawn rt ~pid:1 ~name:"reader" (fun () ->
      while true do
        ignore (Reg.read a);
        ignore (Reg.read s);
        ignore (Reg.Abortable.read ab);
        record `R
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:80_000;
  Runtime.stop rt;
  let during, after =
    List.partition (fun (_, at) -> at < 2_000) !log
  in
  let stalled =
    List.for_all (fun (_, at) -> at < 450) during
    (* a short grace window: operations in flight when the cut lands may
       still complete off majority replies that left before it *)
  in
  Alcotest.(check bool) "no completions under a majority cut" true stalled;
  Alcotest.(check bool)
    "all kinds complete after the heal" true
    (List.exists (fun (k, _) -> k = `A) after
    && List.exists (fun (k, _) -> k = `S) after
    && List.exists (fun (k, _) -> k = `B) after
    && List.exists (fun (k, _) -> k = `R) after)

(* MP abortable: contention-gated policies never fire (writes succeed),
   Unconditional fires exactly as on shared memory. *)
let test_mp_abortable_policies () =
  let rt, cluster = mp_runtime () in
  let always =
    Mp_reg.abortable cluster ~name:"G" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Always ~write_effect:None
  in
  let doomed =
    Mp_reg.abortable cluster ~name:"D" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1
      ~policy:(Abort_policy.Unconditional (fun _ -> true))
      ~write_effect:None
  in
  let ok_writes = ref 0 and aborted_writes = ref 0 in
  Runtime.spawn rt ~pid:0 ~name:"writer" (fun () ->
      for k = 1 to 20 do
        if Reg.Abortable.write always k then incr ok_writes;
        if not (Reg.Abortable.write doomed k) then incr aborted_writes
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:40_000;
  Runtime.stop rt;
  Alcotest.(check int) "contention-gated never aborts solo quorums" 20
    !ok_writes;
  Alcotest.(check int) "unconditional always aborts" 20 !aborted_writes

(* --- full stacks over message passing ------------------------------------- *)

let build_mp_stack ?(seed = 3L) () =
  Tbwf_system.System.build ~seed
    ~substrate:(Tbwf_system.System.Message_passing (cfg ()))
    ~telemetry:true ~n:2 Tbwf_system.System.Tbwf_atomic

let mp_policy =
  (* empty plan sized for the stack: a timely rotation over clients and
     replica pids alike *)
  Tbwf_nemesis.Fault_plan.policy
    (Tbwf_nemesis.Fault_plan.make ~replicas:3 ~n:2 ~horizon:100_000 [])

let test_mp_stack_progresses () =
  let stack = build_mp_stack () in
  Runtime.run stack.Tbwf_system.System.rt ~policy:mp_policy ~steps:40_000;
  let completed = stack.Tbwf_system.System.stats.Tbwf_core.Workload.completed in
  Runtime.stop stack.Tbwf_system.System.rt;
  Array.iteri
    (fun pid c ->
      Alcotest.(check bool)
        (Fmt.str "client %d completed ops (got %d)" pid c)
        true (c > 0))
    completed;
  let telemetry = Option.get stack.Tbwf_system.System.telemetry in
  Alcotest.(check bool)
    "messages flowed" true
    (Tbwf_telemetry.Collector.net_sent telemetry > 0)

(* Same (system, seed, config): byte-identical fingerprints and
   telemetry; and replaying the recorded schedule reproduces both. *)
let qcheck_mp_replay_byte_identical =
  QCheck.Test.make
    ~name:"message-passing run replays byte-identically" ~count:10
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let seed = Int64.of_int seed in
      let run policy steps =
        let stack = build_mp_stack ~seed () in
        Runtime.run stack.Tbwf_system.System.rt ~policy ~steps;
        let trace = Option.get stack.Tbwf_system.System.trace in
        let fp = Trace.fingerprint trace in
        let snap =
          Tbwf_telemetry.Collector.snapshot_string
            (Option.get stack.Tbwf_system.System.telemetry)
        in
        let sched = Trace.schedule trace in
        Runtime.stop stack.Tbwf_system.System.rt;
        fp, snap, sched
      in
      let fp, snap, sched = run mp_policy 8_000 in
      let fp', snap', _ = run (Policy.replay sched) 8_000 in
      String.equal fp fp' && String.equal snap snap')

let () =
  Alcotest.run "net"
    [
      ( "timeline",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "partition" `Quick test_partition_timeline;
          Alcotest.test_case "drop/delay interpolation" `Quick
            test_drop_and_delay_interpolation;
          QCheck_alcotest.to_alcotest qcheck_link_queries_match_reference;
        ] );
      ( "transport",
        [
          Alcotest.test_case "send/poll" `Quick test_send_poll;
          Alcotest.test_case "inbox queue matches list-based poll" `Quick
            test_inbox_matches_reference;
          Alcotest.test_case "partition drops, heal delivers" `Quick
            test_partition_drops_heal_delivers;
          Alcotest.test_case "post step allocation guard" `Quick
            test_post_step_allocation_guard;
          Alcotest.test_case "empty poll step allocation guard" `Quick
            test_empty_poll_step_allocation_guard;
        ] );
      ( "registers",
        [
          Alcotest.test_case "ABD monotonic reads" `Quick
            test_abd_monotonic_reads;
          QCheck_alcotest.to_alcotest qcheck_writer_crash_mid_quorum;
          Alcotest.test_case "minority replica crash" `Quick
            test_minority_replica_crash_tolerated;
          Alcotest.test_case "partition heals mid-operation" `Quick
            test_partition_heals_mid_operation;
          Alcotest.test_case "abortable policies" `Quick
            test_mp_abortable_policies;
        ] );
      ( "stacks",
        [
          Alcotest.test_case "stack progresses" `Quick test_mp_stack_progresses;
          QCheck_alcotest.to_alcotest qcheck_mp_replay_byte_identical;
        ] );
    ]
