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
    | op -> invalid_arg (Fmt.str "Atomic_reg %s: bad op %a" name Value.pp op)
  in
  let obj = Runtime.register_object rt ~name ~respond in
  { obj; codec; cell }

let read t =
  let result = Runtime.call t.obj Value.read_op in
  t.codec.Codec.dec result

let write t v =
  let (_ : Value.t) = Runtime.call t.obj (Value.write_op (t.codec.Codec.enc v)) in
  ()

let peek t = t.codec.Codec.dec !(t.cell)
let name t = t.obj.Shared.name
let shared t = t.obj
let encode t v = t.codec.Codec.enc v
let decode t v = t.codec.Codec.dec v
