open Tbwf_sim

type kind = Read | Write

let pp_kind fmt = function
  | Read -> Fmt.string fmt "R"
  | Write -> Fmt.string fmt "W"

(* Register families keep the operation's nature in the op value itself
   ("read"/"write"/"cas"/"rmw" tags), so the classification is shared-state
   free. Anything we cannot positively identify as a pure read is a write. *)
let kind_of_op op =
  if Value.is_read op then Read else Write

let kind_of_event ~phase op =
  match phase with
  | `Invoke ->
    (* Invocations move the object's overlap counters (ops in flight,
       invocations and events so far), which contention-sensitive
       responders — abortable registers, query-abortable objects —
       observe. An invocation is therefore a write access even for a read
       operation. *)
    Write
  | `Respond _ -> kind_of_op op
