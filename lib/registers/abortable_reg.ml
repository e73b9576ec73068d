open Tbwf_sim

type 'a t = {
  obj : Shared.t;
  codec : 'a Codec.t;
  cell : Value.t ref;
  writer : int;
  reader : int;
}

let create rt ~name ~codec ~init ~writer ~reader ~policy
    ?(write_effect = Abort_policy.Effect_random 0.5) () =
  let cell = ref (codec.Codec.enc init) in
  let respond (ctx : Shared.ctx) =
    match ctx.op with
    | Value.Pair (Str "write", v) ->
      if ctx.pid <> writer then
        invalid_arg
          (Fmt.str "Abortable_reg %s: pid %d is not the writer (%d)" name
             ctx.pid writer);
      if Abort_policy.should_abort policy ~contended:ctx.overlapped ctx then begin
        if Runtime.telemetry_active rt then
          Runtime.signal rt ~pid:ctx.pid Sink.Abort_decision;
        if Abort_policy.write_takes_effect write_effect ctx.rng then cell := v;
        Value.Abort
      end
      else begin
        cell := v;
        Value.Unit
      end
    | Value.Pair (Str "read", _) ->
      if ctx.pid <> reader then
        invalid_arg
          (Fmt.str "Abortable_reg %s: pid %d is not the reader (%d)" name
             ctx.pid reader);
      if Abort_policy.should_abort policy ~contended:ctx.overlapped ctx then begin
        if Runtime.telemetry_active rt then
          Runtime.signal rt ~pid:ctx.pid Sink.Abort_decision;
        Value.Abort
      end
      else !cell
    | op -> invalid_arg (Fmt.str "Abortable_reg %s: bad op %a" name Value.pp op)
  in
  let obj = Runtime.register_object rt ~name ~respond in
  { obj; codec; cell; writer; reader }

let read t =
  match Runtime.call t.obj Value.read_op with
  | Value.Abort -> None
  | v -> Some (t.codec.Codec.dec v)

let write t v =
  match Runtime.call t.obj (Value.write_op (t.codec.Codec.enc v)) with
  | Value.Abort -> false
  | _ -> true

let peek t = t.codec.Codec.dec !(t.cell)
let shared t = t.obj
let encode t v = t.codec.Codec.enc v
let decode t v = t.codec.Codec.dec v
