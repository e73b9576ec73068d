type t = Reference | Compiled
