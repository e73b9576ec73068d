open Tbwf_sim
open Tbwf_registers

type target = Qa | Omega_mesh

let target_name = function Qa -> "qa" | Omega_mesh -> "omega-mesh"

let target_of_name = function
  | "qa" -> Ok Qa
  | "omega-mesh" -> Ok Omega_mesh
  | s -> Error (Fmt.str "bad target %S (want qa | omega-mesh)" s)

type node = Client of int | Replica of int

let node_name = function
  | Client i -> Fmt.str "c%d" i
  | Replica j -> Fmt.str "r%d" j

let node_of_name s =
  if String.length s < 2 then Error (Fmt.str "bad node %S" s)
  else
    let num = String.sub s 1 (String.length s - 1) in
    match s.[0], int_of_string_opt num with
    | 'c', Some i -> Ok (Client i)
    | 'r', Some j -> Ok (Replica j)
    | _ -> Error (Fmt.str "bad node %S (want c<i> | r<j>)" s)

type atom =
  | Crash of { pid : int; at : int }
  | Retire of { pid : int; at : int }
  | Slow of { pid : int; at : int; gap : int; growth : float }
  | Timely of { pid : int; at : int; period : int }
  | Flicker of { pid : int; at : int; active : int; sleep : int; growth : float }
  | Abort_ramp of {
      target : target;
      from : int;
      until : int;
      rate0 : float;
      rate1 : float;
    }
  | Staleness of { from : int; until : int }
  | Partition of { at : int; side : node list }
  | Heal of { at : int }
  | Delay_ramp of {
      from : int;
      until : int;
      extra0 : float;
      extra1 : float;
      node : node option;
    }
  | Drop of {
      from : int;
      until : int;
      rate0 : float;
      rate1 : float;
      node : node option;
    }
  | Crash_replica of { r : int; at : int }
  | Unknown of { line : string }

type t = { n : int; replicas : int; horizon : int; atoms : atom list }

let magic = "tbwf-plan"
let version = "v1"
let version2 = "v2"

let known_kinds =
  [
    "crash"; "retire"; "slow"; "timely"; "flicker"; "abort-ramp"; "staleness";
    "partition"; "heal"; "delay-ramp"; "drop"; "crash-replica";
  ]

(* v2 constructs (and a positive replica count) force the v2 header;
   plans built from v1 atoms alone keep serializing byte-identically to
   the historical format. *)
let is_v2_atom = function
  | Retire _ | Partition _ | Heal _ | Delay_ramp _ | Drop _ | Crash_replica _
  | Unknown _ ->
    true
  | Crash _ | Slow _ | Timely _ | Flicker _ | Abort_ramp _ | Staleness _ ->
    false

let plan_version t =
  if t.replicas > 0 || List.exists is_v2_atom t.atoms then version2
  else version

(* --- validation ---------------------------------------------------------- *)

let validate_atom ~n ~replicas ~horizon atom =
  let check cond msg = if cond then Ok () else Error msg in
  let pid_ok pid = check (pid >= 0 && pid < n) (Fmt.str "pid %d out of range" pid) in
  let step_ok at = check (at >= 0 && at <= horizon) (Fmt.str "step %d outside horizon" at) in
  let rate_ok r = check (r >= 0.0 && r <= 1.0) (Fmt.str "rate %g outside [0,1]" r) in
  let node_ok = function
    | Client i -> pid_ok i
    | Replica j ->
      check (j >= 0 && j < replicas) (Fmt.str "replica %d out of range" j)
  in
  let net_ok = check (replicas > 0) "network atom needs replicas > 0" in
  let ( let* ) = Result.bind in
  match atom with
  | Crash { pid; at } ->
    let* () = pid_ok pid in
    step_ok at
  | Retire { pid; at } ->
    let* () = pid_ok pid in
    step_ok at
  | Slow { pid; at; gap; growth } ->
    let* () = pid_ok pid in
    let* () = step_ok at in
    let* () = check (gap >= 1) "slow: gap must be >= 1" in
    check (growth >= 1.0) "slow: growth must be >= 1.0"
  | Timely { pid; at; period } ->
    let* () = pid_ok pid in
    let* () = step_ok at in
    check (period >= 1) "timely: period must be >= 1"
  | Flicker { pid; at; active; sleep; growth } ->
    let* () = pid_ok pid in
    let* () = step_ok at in
    let* () = check (active >= 1 && sleep >= 1) "flicker: phases must be >= 1" in
    check (growth >= 1.0) "flicker: growth must be >= 1.0"
  | Abort_ramp { target = _; from; until; rate0; rate1 } ->
    let* () = step_ok from in
    let* () = step_ok until in
    let* () = check (from <= until) "abort-ramp: from > until" in
    let* () = rate_ok rate0 in
    rate_ok rate1
  | Staleness { from; until } ->
    let* () = step_ok from in
    let* () = step_ok until in
    check (from <= until) "staleness: from > until"
  | Partition { at; side } ->
    let* () = net_ok in
    let* () = step_ok at in
    let* () = check (side <> []) "partition: empty side" in
    List.fold_left
      (fun acc node -> let* () = acc in node_ok node)
      (Ok ()) side
  | Heal { at } ->
    let* () = net_ok in
    step_ok at
  | Delay_ramp { from; until; extra0; extra1; node } ->
    let* () = net_ok in
    let* () = step_ok from in
    let* () = step_ok until in
    let* () = check (from <= until) "delay-ramp: from > until" in
    let* () = check (extra0 >= 0.0 && extra1 >= 0.0) "delay-ramp: negative extra" in
    (match node with None -> Ok () | Some node -> node_ok node)
  | Drop { from; until; rate0; rate1; node } ->
    let* () = net_ok in
    let* () = step_ok from in
    let* () = step_ok until in
    let* () = check (from <= until) "drop: from > until" in
    let* () = rate_ok rate0 in
    let* () = rate_ok rate1 in
    (match node with None -> Ok () | Some node -> node_ok node)
  | Crash_replica { r; at } ->
    let* () = net_ok in
    let* () =
      check (r >= 0 && r < replicas) (Fmt.str "replica %d out of range" r)
    in
    step_ok at
  | Unknown { line } ->
    (* A future atom kind carried through verbatim: it must survive a
       to_string/of_string round trip unchanged, so reject lines that the
       parser would strip or reinterpret as a known kind. *)
    let* () = check (String.trim line = line && line <> "") "unknown: bad line" in
    let* () = check (line.[0] <> '#') "unknown: comment line" in
    (match String.split_on_char ' ' line with
    | kind :: _ when List.mem kind known_kinds ->
      Error (Fmt.str "unknown: %S is a known kind" kind)
    | _ -> Ok ())

let make ?(replicas = 0) ~n ~horizon atoms =
  if n < 1 then invalid_arg "Fault_plan.make: need at least one process";
  if replicas < 0 then invalid_arg "Fault_plan.make: replicas must be >= 0";
  if horizon < 1 then invalid_arg "Fault_plan.make: horizon must be >= 1";
  List.iter
    (fun atom ->
      match validate_atom ~n ~replicas ~horizon atom with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Fault_plan.make: " ^ msg))
    atoms;
  { n; replicas; horizon; atoms }

let n t = t.n
let replicas t = t.replicas
let horizon t = t.horizon
let atoms t = t.atoms
let equal (a : t) (b : t) = a = b

(* --- serialization ------------------------------------------------------- *)

let float_str f = Fmt.str "%.12g" f

let atom_to_string = function
  | Crash { pid; at } -> Fmt.str "crash pid=%d at=%d" pid at
  | Retire { pid; at } -> Fmt.str "retire pid=%d at=%d" pid at
  | Slow { pid; at; gap; growth } ->
    Fmt.str "slow pid=%d at=%d gap=%d growth=%s" pid at gap (float_str growth)
  | Timely { pid; at; period } ->
    Fmt.str "timely pid=%d at=%d period=%d" pid at period
  | Flicker { pid; at; active; sleep; growth } ->
    Fmt.str "flicker pid=%d at=%d active=%d sleep=%d growth=%s" pid at active
      sleep (float_str growth)
  | Abort_ramp { target; from; until; rate0; rate1 } ->
    Fmt.str "abort-ramp target=%s from=%d until=%d rate0=%s rate1=%s"
      (target_name target) from until (float_str rate0) (float_str rate1)
  | Staleness { from; until } -> Fmt.str "staleness from=%d until=%d" from until
  | Partition { at; side } ->
    Fmt.str "partition at=%d side=%s" at
      (String.concat "," (List.map node_name side))
  | Heal { at } -> Fmt.str "heal at=%d" at
  | Delay_ramp { from; until; extra0; extra1; node } ->
    Fmt.str "delay-ramp from=%d until=%d extra0=%s extra1=%s%s" from until
      (float_str extra0) (float_str extra1)
      (match node with
      | None -> ""
      | Some node -> Fmt.str " node=%s" (node_name node))
  | Drop { from; until; rate0; rate1; node } ->
    Fmt.str "drop from=%d until=%d rate0=%s rate1=%s%s" from until
      (float_str rate0) (float_str rate1)
      (match node with
      | None -> ""
      | Some node -> Fmt.str " node=%s" (node_name node))
  | Crash_replica { r; at } -> Fmt.str "crash-replica r=%d at=%d" r at
  | Unknown { line } -> line

let to_string t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (if t.replicas > 0 then
       Fmt.str "%s %s n=%d horizon=%d replicas=%d\n" magic (plan_version t)
         t.n t.horizon t.replicas
     else
       Fmt.str "%s %s n=%d horizon=%d\n" magic (plan_version t) t.n t.horizon);
  List.iter
    (fun atom ->
      Buffer.add_string buf (atom_to_string atom);
      Buffer.add_char buf '\n')
    t.atoms;
  Buffer.contents buf

let pp fmt t = Fmt.string fmt (to_string t)

let fields_of line =
  String.split_on_char ' ' line
  |> List.filter (fun f -> String.length f > 0)
  |> List.filter_map (fun f ->
         match String.index_opt f '=' with
         | Some i ->
           Some (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
         | None -> None)

let field assoc key parse =
  match List.assoc_opt key assoc with
  | None -> Error (Fmt.str "missing %s= field" key)
  | Some s ->
    (match parse s with
    | Some v -> Ok v
    | None -> Error (Fmt.str "bad %s= field %S" key s))

let int_field assoc key = field assoc key int_of_string_opt
let float_field assoc key = field assoc key float_of_string_opt

let atom_of_string ~v2 line =
  let ( let* ) = Result.bind in
  let node_field assoc key =
    match List.assoc_opt key assoc with
    | None -> Ok None
    | Some s -> Result.map Option.some (node_of_name s)
  in
  match String.split_on_char ' ' line with
  | [] -> Error "empty atom line"
  | kind :: _ ->
    let assoc = fields_of line in
    (match kind with
    | "crash" ->
      let* pid = int_field assoc "pid" in
      let* at = int_field assoc "at" in
      Ok (Crash { pid; at })
    | "retire" ->
      let* pid = int_field assoc "pid" in
      let* at = int_field assoc "at" in
      Ok (Retire { pid; at })
    | "slow" ->
      let* pid = int_field assoc "pid" in
      let* at = int_field assoc "at" in
      let* gap = int_field assoc "gap" in
      let* growth = float_field assoc "growth" in
      Ok (Slow { pid; at; gap; growth })
    | "timely" ->
      let* pid = int_field assoc "pid" in
      let* at = int_field assoc "at" in
      let* period = int_field assoc "period" in
      Ok (Timely { pid; at; period })
    | "flicker" ->
      let* pid = int_field assoc "pid" in
      let* at = int_field assoc "at" in
      let* active = int_field assoc "active" in
      let* sleep = int_field assoc "sleep" in
      let* growth = float_field assoc "growth" in
      Ok (Flicker { pid; at; active; sleep; growth })
    | "abort-ramp" ->
      let* target = Result.bind (field assoc "target" Option.some) target_of_name in
      let* from = int_field assoc "from" in
      let* until = int_field assoc "until" in
      let* rate0 = float_field assoc "rate0" in
      let* rate1 = float_field assoc "rate1" in
      Ok (Abort_ramp { target; from; until; rate0; rate1 })
    | "staleness" ->
      let* from = int_field assoc "from" in
      let* until = int_field assoc "until" in
      Ok (Staleness { from; until })
    | "partition" ->
      let* at = int_field assoc "at" in
      let* side =
        match List.assoc_opt "side" assoc with
        | None -> Error "missing side= field"
        | Some s ->
          List.fold_left
            (fun acc name ->
              let* acc = acc in
              let* node = node_of_name name in
              Ok (node :: acc))
            (Ok [])
            (String.split_on_char ',' s)
          |> Result.map List.rev
      in
      Ok (Partition { at; side })
    | "heal" ->
      let* at = int_field assoc "at" in
      Ok (Heal { at })
    | "delay-ramp" ->
      let* from = int_field assoc "from" in
      let* until = int_field assoc "until" in
      let* extra0 = float_field assoc "extra0" in
      let* extra1 = float_field assoc "extra1" in
      let* node = node_field assoc "node" in
      Ok (Delay_ramp { from; until; extra0; extra1; node })
    | "drop" ->
      let* from = int_field assoc "from" in
      let* until = int_field assoc "until" in
      let* rate0 = float_field assoc "rate0" in
      let* rate1 = float_field assoc "rate1" in
      let* node = node_field assoc "node" in
      Ok (Drop { from; until; rate0; rate1; node })
    | "crash-replica" ->
      let* r = int_field assoc "r" in
      let* at = int_field assoc "at" in
      Ok (Crash_replica { r; at })
    | kind ->
      (* Forward compatibility (v2 onward): an unrecognized atom kind is
         carried verbatim, so editing, shrinking and re-serializing a
         plan from a newer writer never silently drops its atoms. *)
      if v2 then Ok (Unknown { line })
      else Error (Fmt.str "unknown fault atom %S" kind))

let of_string text =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '#')
  in
  match lines with
  | [] -> Error "empty plan"
  | header :: body ->
    let* n, replicas, horizon, v2 =
      match String.split_on_char ' ' header with
      | m :: v :: _
        when String.equal m magic
             && (String.equal v version || String.equal v version2) ->
        let assoc = fields_of header in
        let* n = int_field assoc "n" in
        let* horizon = int_field assoc "horizon" in
        let* replicas =
          match List.assoc_opt "replicas" assoc with
          | None -> Ok 0
          | Some s ->
            (match int_of_string_opt s with
            | Some r when r >= 0 -> Ok r
            | Some _ | None -> Error (Fmt.str "bad replicas= field %S" s))
        in
        if n < 1 then Error "bad n= field"
        else if horizon < 1 then Error "bad horizon= field"
        else if replicas > 0 && not (String.equal v version2) then
          Error "replicas= needs a v2 header"
        else Ok (n, replicas, horizon, String.equal v version2)
      | m :: v :: _ ->
        Error
          (Fmt.str "bad header %S %S (want %S %s|%s)" m v magic version
             version2)
      | _ -> Error "bad header line"
    in
    let* atoms =
      List.fold_left
        (fun acc line ->
          let* acc = acc in
          let* atom = atom_of_string ~v2 line in
          let* () = validate_atom ~n ~replicas ~horizon atom in
          Ok (atom :: acc))
        (Ok []) body
    in
    Ok { n; replicas; horizon; atoms = List.rev atoms }

(* --- prediction ---------------------------------------------------------- *)

let crashed_pids t =
  List.filter_map (function Crash { pid; _ } -> Some pid | _ -> None) t.atoms
  |> List.sort_uniq compare

let retired_pids t =
  List.filter_map (function Retire { pid; _ } -> Some pid | _ -> None) t.atoms
  |> List.sort_uniq compare

let crashed_replicas t =
  List.filter_map
    (function Crash_replica { r; _ } -> Some r | _ -> None)
    t.atoms
  |> List.sort_uniq compare

let node_pid t = function Client i -> i | Replica j -> t.n + j

(* The last schedule-affecting atom of [pid]'s timeline decides its final
   regime; crashes trump everything. *)
let timeline_atoms t pid =
  List.filter
    (function
      | Slow { pid = p; _ } | Timely { pid = p; _ } | Flicker { pid = p; _ } ->
        p = pid
      | Crash _ | Retire _ | Abort_ramp _ | Staleness _ | Partition _ | Heal _
      | Delay_ramp _ | Drop _ | Crash_replica _ | Unknown _ ->
        false)
    t.atoms
  |> List.stable_sort
       (fun a b ->
         let at = function
           | Slow { at; _ } | Timely { at; _ } | Flicker { at; _ } -> at
           | Crash _ | Retire _ | Abort_ramp _ | Staleness _ | Partition _
           | Heal _ | Delay_ramp _ | Drop _ | Crash_replica _ | Unknown _ ->
             assert false
         in
         compare (at a) (at b))

let predicted_timely t =
  let crashed = crashed_pids t in
  let retired = retired_pids t in
  List.init t.n Fun.id
  |> List.filter (fun pid ->
         (not (List.mem pid crashed))
         && (not (List.mem pid retired))
         &&
         match List.rev (timeline_atoms t pid) with
         | [] | Timely _ :: _ -> true
         | (Slow _ | Flicker _) :: _ -> false
         | ( Crash _ | Retire _ | Abort_ramp _ | Staleness _ | Partition _
           | Heal _ | Delay_ramp _ | Drop _ | Crash_replica _ | Unknown _ )
           :: _ ->
           assert false)

let settle_step t =
  let atom_settle = function
    | Crash { at; _ } | Retire { at; _ } | Slow { at; _ } | Timely { at; _ }
    | Flicker { at; _ } ->
      at
    | Staleness { until; _ } -> until
    | Abort_ramp { from; until; _ } | Delay_ramp { from; until; _ }
    | Drop { from; until; _ } ->
      (* A ramp that persists to the horizon never settles; its steady
         regime starts at onset. A windowed burst settles when it ends. *)
      if until >= t.horizon then from else until
    | Partition { at; _ } | Heal { at; _ } | Crash_replica { at; _ } -> at
    | Unknown _ -> 0
  in
  List.fold_left (fun acc atom -> max acc (atom_settle atom)) 0 t.atoms
  |> min t.horizon

let timeliness_bound t = 4 * (t.n + t.replicas + 1)

(* --- emergent timeliness -------------------------------------------------- *)

(* Final network regime, in the same last-atom-wins spirit as
   [predicted_timely]: the last partition/heal decides the cut, a drop
   window persisting to the horizon with a nonzero landing rate makes its
   links lossy forever (untimely), while a pure delay ramp leaves links
   timely — slower, but bounded per message, which is exactly the graceful
   half of the degradation story. *)
let final_partition t =
  List.filter (function Partition _ | Heal _ -> true | _ -> false) t.atoms
  |> List.stable_sort
       (fun a b ->
         let at = function
           | Partition { at; _ } | Heal { at; _ } -> at
           | _ -> assert false
         in
         compare (at a) (at b))
  |> List.fold_left
       (fun acc atom ->
         match atom with
         | Partition { side; _ } -> Some (List.map (node_pid t) side)
         | Heal _ -> None
         | _ -> acc)
       None

let emergent t =
  if t.replicas = 0 then None
  else
    let side = final_partition t in
    let cut a b =
      match side with
      | None -> false
      | Some side -> List.mem a side <> List.mem b side
    in
    let lossy a b =
      List.exists
        (function
          | Drop { until; rate1; node; _ } ->
            until >= t.horizon && rate1 > 0.0
            && (match node with
               | None -> true
               | Some p ->
                 let p = node_pid t p in
                 p = a || p = b)
          | _ -> false)
        t.atoms
    in
    let dead = crashed_replicas t in
    let live =
      List.filter
        (fun r -> not (List.mem r dead))
        (List.init t.replicas Fun.id)
    in
    let reach c =
      List.filter
        (fun r ->
          let rp = t.n + r in
          (not (cut c rp)) && not (lossy c rp))
        live
    in
    Some
      {
        Tbwf_check.Degradation.em_replicas = t.replicas;
        em_live = live;
        em_reach = List.init t.n (fun c -> c, reach c);
      }

let prediction t =
  {
    Tbwf_check.Degradation.pred_n = t.n;
    pred_timely = predicted_timely t;
    pred_from = settle_step t;
    pred_bound = timeliness_bound t;
    pred_emergent = emergent t;
  }

(* --- compilation --------------------------------------------------------- *)

(* Baseline regime: a strict rotation with one spare step per round
   (period n+replicas+1 over n+replicas offsets), so soft participants —
   awake flickering processes — still get scheduled without disturbing
   anyone's bound. Replica server pids ride in the same rotation. *)
let base_pattern t pid =
  Policy.Every { period = t.n + t.replicas + 1; offset = pid }

let pattern_of_atom t = function
  | Slow { gap; growth; _ } ->
    (* Burst sized like Scenario.degraded_policy: enough steps per visit
       that every multiplexed task (election loop, monitors, client) gets
       at least one, so the process never looks willingly inactive. *)
    Policy.Slowing { initial_gap = gap; growth; burst = 8 * t.n }
  | Timely { period; pid; _ } -> Policy.Every { period; offset = pid mod period }
  | Flicker { active; sleep; growth; _ } -> Policy.Flicker { active; sleep; growth }
  | Crash _ | Retire _ | Abort_ramp _ | Staleness _ | Partition _ | Heal _
  | Delay_ramp _ | Drop _ | Crash_replica _ | Unknown _ ->
    assert false

let pattern t pid =
  List.fold_left
    (fun before atom ->
      let at =
        match atom with
        | Slow { at; _ } | Timely { at; _ } | Flicker { at; _ } -> at
        | Crash _ | Retire _ | Abort_ramp _ | Staleness _ | Partition _
        | Heal _ | Delay_ramp _ | Drop _ | Crash_replica _ | Unknown _ ->
          assert false
      in
      Policy.Switch_at (at, before, pattern_of_atom t atom))
    (base_pattern t pid) (timeline_atoms t pid)

let policy t =
  Policy.of_patterns
    (List.init (t.n + t.replicas) (fun pid -> pid, pattern t pid))

let install_crashes t rt =
  List.iter
    (function
      | Crash { pid; at } -> Runtime.crash_at rt ~pid ~step:at
      | Retire { pid; at } -> Runtime.retire ~at rt ~pid
      | Crash_replica { r; at } ->
        (* Replica server pids sit after the clients; the caller is
           responsible for sizing the runtime n + replicas wide. *)
        Runtime.crash_at rt ~pid:(t.n + r) ~step:at
      | Slow _ | Timely _ | Flicker _ | Abort_ramp _ | Staleness _
      | Partition _ | Heal _ | Delay_ramp _ | Drop _ | Unknown _ ->
        ())
    t.atoms

let net_events t =
  List.filter_map
    (function
      | Partition { at; side } ->
        Some
          (Tbwf_net.Net.Ev_partition { at; side = List.map (node_pid t) side })
      | Heal { at } -> Some (Tbwf_net.Net.Ev_heal { at })
      | Delay_ramp { from; until; extra0; extra1; node } ->
        Some
          (Tbwf_net.Net.Ev_delay
             {
               from_ = from;
               until;
               extra0;
               extra1;
               node = Option.map (node_pid t) node;
             })
      | Drop { from; until; rate0; rate1; node } ->
        Some
          (Tbwf_net.Net.Ev_drop
             {
               from_ = from;
               until;
               rate0;
               rate1;
               node = Option.map (node_pid t) node;
             })
      | Crash _ | Retire _ | Slow _ | Timely _ | Flicker _ | Abort_ramp _
      | Staleness _ | Crash_replica _ | Unknown _ ->
        None)
    t.atoms

let ramp_rate ~from ~until ~rate0 ~rate1 step =
  if step < from || step >= until then 0.0
  else if until <= from then rate1
  else
    rate0 +. ((rate1 -. rate0) *. float_of_int (step - from)
              /. float_of_int (until - from))

let abort_policy t ~target ~base =
  let ramps =
    List.filter_map
      (function
        | Abort_ramp { target = tg; from; until; rate0; rate1 } when tg = target
          ->
          Some (fun (ctx : Shared.ctx) ->
              let rate =
                ramp_rate ~from ~until ~rate0 ~rate1 ctx.respond_step
              in
              rate > 0.0 && Rng.bool ctx.rng rate)
        | Staleness { from; until } when target = Omega_mesh ->
          (* A message-staleness burst: writes into the mesh are lost in
             flight (abort; whether the value still lands is the
             register's write_effect, as for any abort), so readers keep
             seeing stale heartbeats. Reads are untouched: the paper's ⊥
             convention already covers aborted reads. *)
          Some (fun (ctx : Shared.ctx) ->
              ctx.respond_step >= from && ctx.respond_step < until
              && Value.is_write ctx.op)
        | Crash _ | Retire _ | Slow _ | Timely _ | Flicker _ | Abort_ramp _
        | Staleness _ | Partition _ | Heal _ | Delay_ramp _ | Drop _
        | Crash_replica _ | Unknown _ ->
          None)
      t.atoms
  in
  match ramps with
  | [] -> base
  | fs ->
    Abort_policy.Any
      (base :: List.map (fun f -> Abort_policy.Unconditional f) fs)

(* --- generation and shrinking -------------------------------------------- *)

let gen ?(max_atoms = 3) ?(replicas = 0) rng ~n ~horizon =
  let grid_step () = horizon * (1 + Rng.int rng 6) / 8 in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let gen_node () =
    if Rng.bool rng 0.5 then Client (Rng.int rng n)
    else Replica (Rng.int rng replicas)
  in
  let gen_net_atom () =
    match Rng.int rng 4 with
    | 0 ->
      let side =
        if Rng.bool rng 0.5 then [ gen_node () ]
        else [ Client (Rng.int rng n); Replica (Rng.int rng replicas) ]
      in
      Partition { at = grid_step (); side = List.sort_uniq compare side }
    | 1 -> Heal { at = grid_step () }
    | 2 ->
      let a = grid_step () and b = grid_step () in
      Drop
        {
          from = min a b;
          until = max a b;
          rate0 = pick [| 0.0; 0.25 |];
          rate1 = pick [| 0.5; 0.9 |];
          node = (if Rng.bool rng 0.5 then Some (gen_node ()) else None);
        }
    | _ ->
      let a = grid_step () and b = grid_step () in
      Delay_ramp
        {
          from = min a b;
          until = max a b;
          extra0 = 0.0;
          extra1 = pick [| 2.0; 5.0; 10.0 |];
          node = (if Rng.bool rng 0.5 then Some (gen_node ()) else None);
        }
  in
  let gen_atom () =
    if replicas > 0 && Rng.bool rng 0.4 then
      if Rng.bool rng 0.2 then
        Crash_replica { r = Rng.int rng replicas; at = grid_step () }
      else gen_net_atom ()
    else
    match Rng.int rng 6 with
    | 0 -> Crash { pid = Rng.int rng n; at = grid_step () }
    | 1 ->
      Slow
        {
          pid = Rng.int rng n;
          at = grid_step ();
          gap = pick [| 20; 40; 80 |];
          growth = pick [| 1.05; 1.15; 1.3 |];
        }
    | 2 -> Timely { pid = Rng.int rng n; at = grid_step (); period = n + 1 }
    | 3 ->
      Flicker
        {
          pid = Rng.int rng n;
          at = grid_step ();
          active = pick [| 40; 80 |];
          sleep = pick [| 100; 200 |];
          growth = pick [| 1.1; 1.3 |];
        }
    | 4 ->
      let a = grid_step () and b = grid_step () in
      Abort_ramp
        {
          target = pick [| Qa; Omega_mesh |];
          from = min a b;
          until = max a b;
          rate0 = pick [| 0.0; 0.25; 0.5 |];
          rate1 = pick [| 0.5; 0.75; 0.95 |];
        }
    | _ ->
      let a = grid_step () and b = grid_step () in
      Staleness { from = min a b; until = max a b }
  in
  let count = 1 + Rng.int rng (max 1 max_atoms) in
  make ~replicas ~n ~horizon (List.init count (fun _ -> gen_atom ()))

let shrink ~fails t =
  if t.atoms = [] then t
  else begin
    let rebuild atoms = { t with atoms } in
    let atoms' =
      Tbwf_check.Shrink.ddmin
        ~fails:(fun atoms -> fails (rebuild atoms))
        t.atoms
    in
    rebuild atoms'
  end
