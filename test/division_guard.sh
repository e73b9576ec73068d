#!/bin/sh
# Fails if a named step-path function divides. An integer division by a
# value the compiler cannot see (`x / y`, `x mod y`) is an idiv (x86-64)
# or sdiv (arm64) instruction, tens of cycles where the step path needs a
# compare and a subtraction. Division by a constant compiles to a
# multiply and is not caught, and neither is a division in a function
# the named one calls without inlining it.
#
# usage: sh division_guard.sh OBJECT.o:FUNCTION[,FUNCTION...] ...
#
# FUNCTION is the source name of a top-level or local function: OCaml 5.1
# names it camlModule.FUNCTION_123 in the object, OCaml 5.2
# camlModule$FUNCTION_123. Every named function must be found in its
# object, so a rename cannot silently empty the check.
if ! command -v objdump >/dev/null 2>&1; then
  echo "division_guard: objdump not found, skipped"
  exit 0
fi
status=0
for arg in "$@"; do
  obj=${arg%%:*}
  functions=${arg#*:}
  module=$(basename "$obj" .o | sed 's/.*__//')
  objdump -d "$obj" | awk -v module="$module" -v functions="$functions" '
    BEGIN {
      n = split(functions, names, ",")
      for (i = 1; i <= n; i++) { wanted[names[i]] = 1; found[names[i]] = 0 }
    }
    /^[0-9a-f]+ <.*>:$/ {
      fn = $2; gsub(/[<>:]/, "", fn)
      name = fn; sub(/^.*[.$]/, "", name); sub(/_[0-9]+$/, "", name)
      if (name in wanted) found[name] = 1; else name = ""
    }
    name != "" && /\t(idiv|sdiv)/ {
      printf "%s: %s divides: %s\n", module, fn, $0
      bad = 1
    }
    END {
      for (f in found)
        if (!found[f]) { printf "%s: no function named %s\n", module, f; bad = 1 }
      exit bad
    }' || status=1
done
if [ "$status" -ne 0 ]; then
  echo "division_guard: integer division on the step path (see above)"
fi
exit $status
