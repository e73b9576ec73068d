open Tbwf_sim

type 'a t = {
  obj : Shared.t;
  codec : 'a Codec.t;
  cell : Value.t ref;
}

let create rt ~name ~codec ~init =
  let cell = ref (codec.Codec.enc init) in
  let respond (ctx : Shared.ctx) =
    match ctx.op with
    | Value.Pair (Str "write", v) ->
      cell := v;
      Value.Unit
    | Value.Pair (Str "read", _) -> !cell
    | Value.Pair (Str "cas", Pair (expected, desired)) ->
      if Value.equal !cell expected then begin
        cell := desired;
        Value.Bool true
      end
      else Value.Bool false
    | op -> invalid_arg (Fmt.str "Cas_reg %s: bad op %a" name Value.pp op)
  in
  let obj = Runtime.register_object rt ~name ~respond in
  { obj; codec; cell }

let read t = t.codec.Codec.dec (Runtime.call t.obj Value.read_op)

let write t v =
  let (_ : Value.t) = Runtime.call t.obj (Value.write_op (t.codec.Codec.enc v)) in
  ()

let cas t ~expected ~desired =
  let op =
    Value.Pair
      (Str "cas", Pair (t.codec.Codec.enc expected, t.codec.Codec.enc desired))
  in
  Value.to_bool (Runtime.call t.obj op)

let peek t = t.codec.Codec.dec !(t.cell)
