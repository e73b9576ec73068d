open Tbwf_sim
open Tbwf_registers

type access = { obj_id : int; kind : Footprint.kind }

(* A step's footprint: the accesses it performed, deduplicated with writes
   dominating reads per object. Kept as a small sorted list — steps touch
   at most a handful of objects (typically a respond plus the next invoke). *)
type footprint = access list

let empty = []

let add footprint access =
  let rec insert = function
    | [] -> [ access ]
    | a :: rest when a.obj_id = access.obj_id ->
      let kind =
        match a.kind, access.kind with
        | Footprint.Read, Footprint.Read -> Footprint.Read
        | _ -> Footprint.Write
      in
      { a with kind } :: rest
    | a :: rest when a.obj_id < access.obj_id -> a :: insert rest
    | rest -> access :: rest
  in
  insert footprint

let of_events events =
  List.fold_left
    (fun acc (ev : Trace.op_event) ->
      add acc
        {
          obj_id = ev.Trace.obj_id;
          kind = Footprint.kind_of_event ~phase:ev.Trace.phase ev.Trace.op;
        })
    empty events

(* Two footprints commute iff no object is shared with a write on either
   side — i.e. steps touching different registers, or both merely reading
   the registers they share, can be swapped without changing any state. *)
let commute a b =
  let conflict x y =
    x.obj_id = y.obj_id
    && not (x.kind = Footprint.Read && y.kind = Footprint.Read)
  in
  not (List.exists (fun x -> List.exists (conflict x) b) a)
