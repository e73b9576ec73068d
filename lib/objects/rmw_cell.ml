open Tbwf_sim
open Tbwf_registers

type t = { obj : Shared.t; state : Value.t ref }

let create rt ~name ~init ~transition ~policy
    ?(effect_on_abort = Abort_policy.Effect_random 0.5) () =
  let state = ref init in
  let apply op =
    match transition !state op with
    | Some (state', response) ->
      state := state';
      response
    | None ->
      invalid_arg (Fmt.str "Rmw_cell %s: illegal op %a" name Value.pp op)
  in
  let respond (ctx : Shared.ctx) =
    match ctx.op with
    | Value.Pair (Str "rmw", op) ->
      if Abort_policy.should_abort policy ~contended:ctx.step_contended ctx then begin
        if Abort_policy.write_takes_effect effect_on_abort ctx.rng then
          ignore (apply op);
        Value.Abort
      end
      else apply op
    | Value.Pair (Str "read", _) ->
      if Abort_policy.should_abort policy ~contended:ctx.step_contended ctx then Value.Abort else !state
    | op -> invalid_arg (Fmt.str "Rmw_cell %s: bad op %a" name Value.pp op)
  in
  let obj = Runtime.register_object rt ~name ~respond in
  { obj; state }

let peek t = !(t.state)
let shared t = t.obj
