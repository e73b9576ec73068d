(** A leftover of the second execution backend, kept only because the
    benchmark still passes [Backend.Compiled] to
    [Tbwf_system.System.build ?backend], which ignores it: both values
    build the same stack.

    There is one backend, {!Runtime}, and the paper's algorithms run on it
    as step machines ({!Runtime.spawn_machine}). *)

type t = Reference | Compiled
