open Tbwf_sim
open Tbwf_registers

(* Cell state: Pair (seq_state, List fate_entries) where each entry is
   Pair (Int pid, Pair (op_id, response)) and op_id = Pair (Int pid, Int k). *)

let fate_entry pid op_id response =
  Value.Pair (Int pid, Pair (op_id, response))

let lookup_fate pid entries =
  List.find_map
    (function
      | Value.Pair (Int p, fate) when p = pid -> Some fate
      | _ -> None)
    entries

let drop_fate pid entries =
  List.filter
    (function Value.Pair (Int p, _) when p = pid -> false | _ -> true)
    entries

let create rt ~name ~spec ~policy
    ?(effect_on_abort = Abort_policy.Effect_random 0.5) () =
  let transition state op =
    match state, op with
    | Value.Pair (seq_state, List fates), Value.Pair (op_id, seq_op) -> (
      match spec.Seq_spec.apply seq_state seq_op with
      | None -> None
      | Some (seq_state', response) ->
        let pid =
          match op_id with
          | Value.Pair (Int pid, _) -> pid
          | v -> invalid_arg (Value.to_string v)
        in
        let fates' = fate_entry pid op_id response :: drop_fate pid fates in
        Some (Value.Pair (seq_state', List fates'), response))
    | _ -> None
  in
  let cell =
    Rmw_cell.create rt ~name
      ~init:(Value.Pair (spec.Seq_spec.initial, List []))
      ~transition ~policy ~effect_on_abort ()
  in
  (* The op-id bookkeeping lives on the caller's side: per pid, the
     sequence number and the id of its last issued operation ([Unit]
     before the first, which no logged id equals). A pid's ops are only
     ever issued by that pid's client. The tables grow with the
     membership. *)
  let sequence = ref (Array.make (Runtime.n rt) 0) in
  let last_op_id = ref (Array.make (Runtime.n rt) Value.Unit) in
  let ensure pid =
    let len = Array.length !sequence in
    if pid >= len then begin
      let len' = Int.max (pid + 1) (2 * len) in
      let grow a fill =
        let a' = Array.make len' fill in
        Array.blit a 0 a' 0 len;
        a'
      in
      sequence := grow !sequence 0;
      last_op_id := grow !last_op_id Value.Unit
    end
  in
  let invoke_op ~pid op =
    ensure pid;
    let k = !sequence.(pid) + 1 in
    !sequence.(pid) <- k;
    let op_id = Value.Pair (Int pid, Int k) in
    !last_op_id.(pid) <- op_id;
    Value.Pair (Str "rmw", Pair (op_id, op))
  in
  let query_result ~pid v =
    match v with
    | Value.Abort -> Value.Abort
    | Value.Pair (_, List fates) -> (
      ensure pid;
      match lookup_fate pid fates with
      | Some (Value.Pair (op_id, response))
        when Value.equal op_id !last_op_id.(pid) ->
        response
      | _ -> Value.Fail)
    | v -> invalid_arg (Fmt.str "Qa_universal %s: bad cell state %a" name Value.pp v)
  in
  let peek_state () =
    match Rmw_cell.peek cell with
    | Value.Pair (seq_state, _) -> seq_state
    | v -> invalid_arg (Value.to_string v)
  in
  Qa_intf.make rt ~name ~obj:(Rmw_cell.shared cell) ~invoke_op
    ~query_op:Value.read_op ~query_result ~peek_state
