#!/bin/sh
# Fails if a native object file of the step path calls OCaml's polymorphic
# comparison (caml_compare, caml_equal, ...) or Stdlib's generic max/min.
# Each such call costs a C call on the hot path where a typed comparison
# (Int.max, an int annotation, an explicit lexicographic test) costs an
# instruction or two.
#
# usage: sh typed_compare_guard.sh OBJECT.o ...
#
# Symbols are matched by prefix: OCaml 5.1 names Stdlib's max
# camlStdlib.max_48, OCaml 5.2 camlStdlib$max_48. A max or min passed as
# a value is read through the Stdlib module block, not a symbol of its
# own, and is not caught.
if ! command -v objdump >/dev/null 2>&1; then
  echo "typed_compare_guard: objdump not found, skipped"
  exit 0
fi
status=0
for obj in "$@"; do
  module=$(basename "$obj" .o | sed 's/.*__//')
  objdump -dr "$obj" | awk -v module="$module" '
    /^[0-9a-f]+ <.*>:$/ { fn = $2; gsub(/[<>:]/, "", fn) }
    /R_[A-Z0-9_]+[ \t]/ {
      sym = $NF
      sub(/[-+]0x[0-9a-f]+$/, "", sym)
      if (sym ~ /^caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)$/ \
          || sym ~ /^camlStdlib[.$](max|min)_/) {
        printf "%s: %s calls %s\n", module, fn, sym
        bad = 1
      }
    }
    END { exit bad }' || status=1
done
if [ "$status" -ne 0 ]; then
  echo "typed_compare_guard: polymorphic comparison on the step path (see above)"
fi
exit $status
