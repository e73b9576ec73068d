open Tbwf_sim
open Tbwf_registers
open Tbwf_omega
open Tbwf_objects
open Tbwf_core

(* --- the registry -------------------------------------------------------- *)

type id =
  | Tbwf_atomic
  | Tbwf_abortable
  | Tbwf_universal
  | Naive_booster
  | Retry

type info = {
  id : id;
  name : string;
  summary : string;
  figure : string;
}

let registry =
  [
    {
      id = Tbwf_atomic;
      name = "tbwf-atomic";
      summary =
        "TBWF transformation over the atomic-register \xE2\x84\xA6\xCE\x94 \
         (activity monitors + counter registers)";
      figure = "Figs. 2-3 + 7 (Thm 11-12, 14)";
    };
    {
      id = Tbwf_abortable;
      name = "tbwf-abortable";
      summary =
        "TBWF transformation over the abortable-register \xE2\x84\xA6\xCE\x94 \
         (message channels + heartbeats)";
      figure = "Figs. 4-6 + 7 (Thm 13)";
    };
    {
      id = Tbwf_universal;
      name = "tbwf-universal";
      summary =
        "as tbwf-abortable, with the query-abortable object itself built by \
         the universal QA construction over an abortable RMW cell";
      figure = "Figs. 4-6 + 7, QA per ref [2]";
    };
    {
      id = Naive_booster;
      name = "naive-booster";
      summary =
        "boosting baseline: min-alive-pid leader, adaptive timeouts, no \
         punishment of timeliness faults";
      figure = "S1.2 baseline (E2)";
    };
    {
      id = Retry;
      name = "retry";
      summary =
        "obstruction-free baseline: op/query/retry automaton with no leader \
         gate at all";
      figure = "S2 / Fig. 8 sans gate (E2/E3)";
    };
  ]

let all = List.map (fun e -> e.id) registry
let paper_systems = [ Tbwf_atomic; Tbwf_abortable; Tbwf_universal ]
let baseline_systems = [ Naive_booster; Retry ]

let info id = List.find (fun e -> e.id = id) registry
let to_string id = (info id).name

let of_string s =
  match List.find_opt (fun e -> String.equal e.name s) registry with
  | Some e -> Ok e.id
  | None ->
    Error
      (Fmt.str "unknown system %S (known: %s)" s
         (String.concat ", " (List.map (fun e -> e.name) registry)))

let pp fmt id = Fmt.string fmt (to_string id)

let pp_registry fmt () =
  Fmt.pf fmt "@[<v>";
  List.iter
    (fun e ->
      Fmt.pf fmt "%-16s %s@,%-16s [%s]@," e.name e.summary "" e.figure)
    registry;
  Fmt.pf fmt "@]"

(* --- low-level wiring ---------------------------------------------------- *)

(* Thin, named entry points over the individual installers: every
   non-test consumer routes stack construction through this module, so a
   grep for the raw installers outside [lib/system] finds only tests. *)

let install_atomic ?self_punishment ?factory ?n rt =
  Omega_registers.install ?self_punishment ?factory ?n rt

let install_abortable ?factory ?n rt ~policy ?write_effect () =
  Omega_abortable.install ?factory ?n rt ~policy ?write_effect ()

let install_naive ?factory ?n rt = Baselines.Naive_booster.install ?factory ?n rt

let create_qa ?(universal = false) rt ~name ~spec ~policy () =
  if universal then Qa_universal.create rt ~name ~spec ~policy ()
  else Qa_object.create rt ~name ~spec ~policy ()

(* --- building a full stack ----------------------------------------------- *)

type substrate = Shared_memory | Message_passing of Tbwf_net.Net.config

let substrate_name = function
  | Shared_memory -> "shared-memory"
  | Message_passing _ -> "message-passing"

let substrate_of_name = function
  | "shared-memory" -> Ok Shared_memory
  | "message-passing" -> Ok (Message_passing Tbwf_net.Net.default_config)
  | s ->
    Error
      (Fmt.str "unknown substrate %S (known: shared-memory, message-passing)"
         s)

type stack = {
  system : id;
  substrate : substrate;
  rt : Runtime.t;
  net : Tbwf_net.Net.t option;
  cluster : Mp_reg.Cluster.t option;
  handles : Omega_spec.handle array;
  qa : Qa_intf.t;
  tbwf : Tbwf.t option;
  invoke : Value.t -> Value.t;
  stats : Workload.stats;
  trace : Trace.t option;
  telemetry : Tbwf_telemetry.Collector.t option;
}

let default_qa_universal = function
  | Tbwf_universal -> true
  | Tbwf_atomic | Tbwf_abortable | Naive_booster | Retry -> false

let build ?backend:(_ : Backend.t option) ?(substrate = Shared_memory) ?seed
    ?(record_trace = true) ?(canonical = true) ?(qa_policy = Abort_policy.Always)
    ?(mesh_policy = Abort_policy.Always) ?qa_universal ?(spec = Counter.spec)
    ?(next_op = Workload.forever Counter.inc) ?client_pids
    ?(telemetry = false) ?telemetry_window ?telemetry_retain ~n id =
  let rt =
    match substrate with
    | Shared_memory -> Runtime.create ?seed ~n ()
    | Message_passing config ->
      (* Replica server pids ride after the n clients, inside the same
         deterministic scheduler. *)
      Runtime.create ?seed ~n:(n + config.Tbwf_net.Net.replicas) ()
  in
  (* The recorder goes first: trace index i is runtime step i, so it must
     see step 0. *)
  let trace =
    if record_trace then begin
      let trace = Trace.create () in
      Runtime.set_sink rt (Trace.recorder trace);
      Some trace
    end
    else None
  in
  (* The collector only tees a sink after the recorder; attaching before
     the stack is wired observes nothing and keeps the trace identical,
     while covering the wiring itself once spans start flowing. *)
  let collector =
    if telemetry then
      Some
        (Tbwf_telemetry.Collector.attach ?window:telemetry_window
           ?retain:telemetry_retain rt)
    else None
  in
  (* Network and replica cluster come up before the Ω∆ so that inbox and
     replica wiring claims its object ids and pids first — part of the
     message-passing determinism contract. *)
  let net, cluster, factory =
    match substrate with
    | Shared_memory -> None, None, None
    | Message_passing config ->
      let net = Tbwf_net.Net.create rt ~config in
      let cluster = Mp_reg.Cluster.create rt ~net in
      Some net, Some cluster, Some (Mp_reg.factory cluster)
  in
  (* The Ω∆'s installer picks the form of its tasks from the substrate. *)
  let handles =
    match id with
    | Tbwf_atomic -> (install_atomic ?factory ~n rt).Omega_registers.handles
    | Tbwf_abortable | Tbwf_universal ->
      (install_abortable ?factory ~n rt ~policy:mesh_policy ())
        .Omega_abortable.handles
    | Naive_booster ->
      (install_naive ?factory ~n rt).Baselines.Naive_booster.handles
    | Retry -> [||]
  in
  let qa =
    let universal =
      match qa_universal with
      | Some u -> u
      | None -> default_qa_universal id
    in
    create_qa ~universal rt
      ~name:(spec.Seq_spec.name ^ "-qa")
      ~spec ~policy:qa_policy ()
  in
  let tbwf, invoke =
    match id with
    | Tbwf_atomic | Tbwf_abortable | Tbwf_universal | Naive_booster ->
      let tbwf = Tbwf.make ~qa ~omega_handles:handles ~canonical () in
      Some tbwf, Tbwf.invoke tbwf
    | Retry -> None, Baselines.retry_invoke qa
  in
  let stats = Workload.fresh_stats ~n in
  let client_pids =
    match client_pids with Some pids -> pids | None -> List.init n Fun.id
  in
  (* The clients are machines on both substrates: the QA object is a
     shared object on message passing too. *)
  Tbwf.spawn_clients rt ~gate:tbwf ~qa ~pids:client_pids ~stats ~next_op;
  {
    system = id;
    substrate;
    rt;
    net;
    cluster;
    handles;
    qa;
    tbwf;
    invoke;
    stats;
    trace;
    telemetry = collector;
  }
