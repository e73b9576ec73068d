#!/bin/sh
# Fails, naming the module, when a module under the library tree is used
# by nothing outside its own .ml/.mli: no other library file, and no file
# of the drivers, the examples or the benchmark names it. A test alone
# does not keep a module; a module nothing else calls serves no claim of
# the reproduction and should go, with its tests.
#
# "Names" means a use in code: the module qualifying a path (Name.x or
# Lib.Name), or opened or included. A word in a comment that is none of
# these does not count.
#
# usage: sh orphan_module_guard.sh LIB_DIR [OTHER_DIR ...]
if [ "$#" -lt 1 ]; then
  echo "usage: orphan_module_guard.sh LIB_DIR [OTHER_DIR ...]"
  exit 2
fi
lib=$1
sources() {
  find "$@" -name '.*' -prune -o \( -name '*.ml' -o -name '*.mli' \) -print
}
units=$(sources "$lib" | sed 's|.*/||; s|\.mli*$||' | sort -u)
if [ -z "$units" ]; then
  echo "orphan_module_guard: no modules found under $lib"
  exit 2
fi
files=$(sources "$@")
w="[^A-Za-z0-9_']"
status=0
for unit in $units; do
  name=$(printf '%s' "$unit" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  pattern="(^|$w)$name\\.|\\.$name(\$|$w)|(open!?|include)[ ]+$name(\$|$w)"
  # shellcheck disable=SC2086 # the file list is split on purpose
  if ! grep -El "$pattern" $files | grep -Evq "/$unit\\.mli?\$"; then
    echo "orphan_module_guard: $name ($lib) is named by no library, driver, example or benchmark file"
    status=1
  fi
done
exit $status
