open Tbwf_sim
open Tbwf_registers

type fate =
  | Took_effect of Value.t  (** the response the operation earned *)
  | No_effect
  | Nothing_invoked

let create rt ~name ~spec ~policy
    ?(effect_on_abort = Abort_policy.Effect_random 0.5) () =
  let state = ref spec.Seq_spec.initial in
  let fates : (int, fate) Hashtbl.t = Hashtbl.create 16 in
  let fate_of pid =
    Option.value (Hashtbl.find_opt fates pid) ~default:Nothing_invoked
  in
  let apply_op pid op =
    let state', response = Seq_spec.apply_exn spec !state op in
    state := state';
    Hashtbl.replace fates pid (Took_effect response);
    response
  in
  let respond (ctx : Shared.ctx) =
    match ctx.op with
    | Value.Pair (Str "apply", op) ->
      if Abort_policy.should_abort policy ~contended:ctx.step_contended ctx then begin
        if Abort_policy.write_takes_effect effect_on_abort ctx.rng then
          ignore (apply_op ctx.pid op)
        else Hashtbl.replace fates ctx.pid No_effect;
        Value.Abort
      end
      else apply_op ctx.pid op
    | Value.Pair (Str "query", _) ->
      if Abort_policy.should_abort policy ~contended:ctx.step_contended ctx then Value.Abort
      else begin
        match fate_of ctx.pid with
        | Took_effect response -> response
        | No_effect | Nothing_invoked -> Value.Fail
      end
    | op -> invalid_arg (Fmt.str "Qa_object %s: bad op %a" name Value.pp op)
  in
  let obj = Runtime.register_object rt ~name ~respond in
  Qa_intf.make rt ~name ~obj
    ~invoke_op:(fun ~pid:_ op -> Value.Pair (Str "apply", op))
    ~query_op:(Value.Pair (Str "query", Unit))
    ~query_result:(fun ~pid:_ v -> v)
    ~peek_state:(fun () -> !state)
