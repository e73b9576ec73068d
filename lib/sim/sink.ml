(* Telemetry sink: the runtime's hook surface for observers.

   The runtime (and the libraries built on it) emit structured events
   through a sink record. The default sink is [nil], whose callbacks are
   no-ops and whose [active] flag is false; every instrumentation site
   guards on [active] *before* building the event's payload, so with the
   nil sink installed the only cost on the hot path is one boolean load
   and branch. Attaching a real sink (the trace recorder, the collector,
   the online checkers, teed) turns the same sites into a deterministic
   event stream: events are keyed by the simulator's step counter, never
   by wall-clock, so the same (seed, policy) produces a byte-identical
   stream. *)

type layer = App | Omega | Monitor | Other

let layer_name = function
  | App -> "app"
  | Omega -> "omega"
  | Monitor -> "monitor"
  | Other -> "other"

let layer_index = function App -> 0 | Omega -> 1 | Monitor -> 2 | Other -> 3
let layers = [ App; Omega; Monitor; Other ]
let n_layers = 4

(* Structured events from the libraries above the step loop. Payloads are
   allocated only when a sink is active (call sites guard). *)
type signal =
  | Abort_decision
      (** an abortable register chose to abort the acting process's
          current operation; constant, so signalling one allocates
          nothing *)
  | Leader_view of { leader : int option }
      (** the acting process's Ω∆ view changed ([None] = no leader) *)
  | Suspicion_flip of { watched : int; suspected : bool }
      (** activity monitor A(p,q) at the acting process p flipped its
          estimate of [watched] = q *)
  | Crash of { pid : int }  (** the runtime crashed process [pid] *)
  | Retire of { pid : int }
      (** the runtime gracefully retired process [pid]: it left the
          membership with any in-flight operation resolved first, so the
          departure is not a failure — checkers and telemetry count it
          apart from {!Crash} *)
  | Op_complete
      (** the acting process completed one workload-level operation (a
          full [Tbwf.invoke] round trip, not an individual register call
          — emitted by [Workload], so it counts exactly what
          [Workload.stats.completed] counts) *)
  | Message of { src : int; dst : int; latency : int; dropped : bool }
      (** the simulated network accepted a message from [src] to [dst];
          [latency] is the assigned delivery delay in steps, and
          [dropped] is true when the message was cut by a partition or a
          loss draw (then [latency] is the would-have-been delay) *)

type t = {
  active : bool;
  on_step : step:int -> pid:int -> layer:layer -> unit;
  on_invoke : step:int -> pid:int -> obj:Shared.t -> op:Value.t -> unit;
  on_respond :
    step:int ->
    pid:int ->
    layer:layer ->
    obj:Shared.t ->
    op:Value.t ->
    invoked:int ->
    overlapped:bool ->
    result:Value.t ->
    unit;
  on_signal : step:int -> pid:int -> signal -> unit;
}

let nil =
  {
    active = false;
    on_step = (fun ~step:_ ~pid:_ ~layer:_ -> ());
    on_invoke = (fun ~step:_ ~pid:_ ~obj:_ ~op:_ -> ());
    on_respond =
      (fun ~step:_ ~pid:_ ~layer:_ ~obj:_ ~op:_ ~invoked:_ ~overlapped:_
           ~result:_ -> ());
    on_signal = (fun ~step:_ ~pid:_ _ -> ());
  }

(* Fan one event stream out to two sinks, first [a] then [b] — the
   composition point that lets a collector and an online checker watch
   the same run. The tee is active if either side is, and call sites
   guard on the *tee*'s flag, so an inactive side just receives (and
   ignores) events its partner paid to build. Where one side's callback
   is [nil]'s, the tee hands out the other side's callback itself: an
   invoke or respond that only the collector reads reaches it with no
   hop through the tee. *)
let tee a b =
  let either nil_cb a_cb b_cb both =
    if a_cb == nil_cb then b_cb else if b_cb == nil_cb then a_cb else both
  in
  {
    active = a.active || b.active;
    on_step =
      either nil.on_step a.on_step b.on_step (fun ~step ~pid ~layer ->
          a.on_step ~step ~pid ~layer;
          b.on_step ~step ~pid ~layer);
    on_invoke =
      either nil.on_invoke a.on_invoke b.on_invoke (fun ~step ~pid ~obj ~op ->
          a.on_invoke ~step ~pid ~obj ~op;
          b.on_invoke ~step ~pid ~obj ~op);
    on_respond =
      either nil.on_respond a.on_respond b.on_respond
        (fun ~step ~pid ~layer ~obj ~op ~invoked ~overlapped ~result ->
          a.on_respond ~step ~pid ~layer ~obj ~op ~invoked ~overlapped
            ~result;
          b.on_respond ~step ~pid ~layer ~obj ~op ~invoked ~overlapped
            ~result);
    on_signal =
      either nil.on_signal a.on_signal b.on_signal (fun ~step ~pid s ->
          a.on_signal ~step ~pid s;
          b.on_signal ~step ~pid s);
  }
