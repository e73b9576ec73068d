open Tbwf_sim
module System = Tbwf_system.System

type observation = {
  fingerprint : string;
  telemetry : string option;
}

let observe ?(backend = Backend.Reference) ?seed ?(telemetry = false)
    ?qa_policy ?mesh_policy ?(configure = fun (_ : System.stack) -> ())
    ?(policy = fun () -> Policy.round_robin ()) ?(steps = 4_000) ~n id =
  let stack =
    System.build ~backend ?seed ?qa_policy ?mesh_policy ~telemetry ~n id
  in
  configure stack;
  let rt = stack.System.rt in
  Runtime.run rt ~policy:(policy ()) ~steps;
  Runtime.stop rt;
  {
    fingerprint = Trace.fingerprint (Option.get stack.System.trace);
    telemetry =
      Option.map Tbwf_telemetry.Collector.snapshot_string
        stack.System.telemetry;
  }

type verdict =
  | Agree
  | Diverge of {
      field : string;
      line : int;
      reference : string;
      compiled : string;
    }

(* First differing line, so a broken contract names the step or snapshot
   field where the backends part ways instead of just "digests differ". *)
let first_diff ~field a b =
  if String.equal a b then Agree
  else begin
    let la = String.split_on_char '\n' a in
    let lb = String.split_on_char '\n' b in
    let rec walk i la lb =
      match la, lb with
      | [], [] -> Agree
      | x :: la', y :: lb' ->
        if String.equal x y then walk (i + 1) la' lb'
        else Diverge { field; line = i; reference = x; compiled = y }
      | x :: _, [] ->
        Diverge { field; line = i; reference = x; compiled = "<end>" }
      | [], y :: _ ->
        Diverge { field; line = i; reference = "<end>"; compiled = y }
    in
    walk 1 la lb
  end

let compare_observations reference compiled =
  match first_diff ~field:"fingerprint" reference.fingerprint
          compiled.fingerprint
  with
  | Diverge _ as d -> d
  | Agree -> (
    match reference.telemetry, compiled.telemetry with
    | Some a, Some b -> first_diff ~field:"telemetry" a b
    | None, None -> Agree
    | Some _, None ->
      Diverge
        {
          field = "telemetry";
          line = 0;
          reference = "<collector attached>";
          compiled = "<no collector>";
        }
    | None, Some _ ->
      Diverge
        {
          field = "telemetry";
          line = 0;
          reference = "<no collector>";
          compiled = "<collector attached>";
        })

let check ?seed ?telemetry ?qa_policy ?mesh_policy ?configure ?policy ?steps
    ~n id =
  let run backend =
    observe ~backend ?seed ?telemetry ?qa_policy ?mesh_policy ?configure
      ?policy ?steps ~n id
  in
  compare_observations (run Backend.Reference) (run Backend.Compiled)

let pp_verdict fmt = function
  | Agree -> Fmt.string fmt "backends agree"
  | Diverge { field; line; reference; compiled } ->
    Fmt.pf fmt "backends diverge in %s at line %d:@ reference: %s@ compiled: %s"
      field line reference compiled
