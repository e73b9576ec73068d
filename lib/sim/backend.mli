(** A leftover of the second execution backend, kept only because the
    benchmark still passes [Backend.Compiled] to
    [Tbwf_system.System.build ?backend], which ignores it: both values
    build the same stack.

    There is one backend, {!Runtime}, and it runs a task in one of two
    forms: a fiber ({!Runtime.spawn}) or a step machine
    ({!Runtime.spawn_machine}). The installers pick the form, and each
    machine is tested byte-identical to its fiber. *)

type t = Reference | Compiled
