#!/bin/sh
# Fails if a native unit of the step path was compiled -opaque. Such a
# unit exports no cross-module information (its .cmx's Clambda
# approximation is empty, printed "_"), so every call into it from
# another module loads the callee from the module block and goes through
# caml_applyN: nothing is inlined or direct. dune's dev profile compiles
# every library that way; the release profile, which dune-workspace makes
# the default, does not. The allocation pins and the objdump guards
# describe the release build, the one the benchmark runs, so they are
# not judged against any other.
#
# usage: sh cross_module_guard.sh UNIT.cmx ...
if ! command -v ocamlobjinfo >/dev/null 2>&1; then
  echo "cross_module_guard: ocamlobjinfo not found, skipped"
  exit 0
fi
if [ "$(ocamlopt -config-var flambda 2>/dev/null)" = true ]; then
  echo "cross_module_guard: flambda compiler, no Clambda approximation to read, skipped"
  exit 0
fi
status=0
for cmx in "$@"; do
  module=$(basename "$cmx" .cmx | sed 's/.*__//')
  # A unit whose approximation cannot be read fails too, so a missing or
  # renamed file cannot silently empty the check.
  ocamlobjinfo "$cmx" | awk -v module="$module" '
    approx { seen = 1; empty = ($0 ~ /^[ \t]*_[ \t]*$/); approx = 0 }
    /^Clambda approximation:/ { approx = 1 }
    END {
      if (!seen) printf "%s: no Clambda approximation found\n", module
      else if (empty) printf "%s: empty Clambda approximation (compiled -opaque)\n", module
      exit (!seen || empty)
    }' || status=1
done
if [ "$status" -ne 0 ]; then
  echo "cross_module_guard: step-path units without cross-module information (see above);"
  echo "the dev profile builds them -opaque, but the pins and guards describe the release"
  echo "profile that dune-workspace makes the default: build without --profile dev"
fi
exit $status
