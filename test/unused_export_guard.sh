#!/bin/sh
# Fails, naming Module.name, when a top-level val of an interface under the
# library tree is named by no .ml/.mli outside its own module: an export
# nothing reads should leave the interface (and the code, if its own module
# does not use it either).
#
# A use is a word match anywhere in another module's source, comments
# included, and tests count as users: the module guard already demands a
# non-test user for every module. A module is the pair DIR/NAME.ml and
# DIR/NAME.mli, so examples/degradation.ml is not lib/check/degradation's.
# One awk pass over every source reads the vals and the words together.
#
# usage: sh unused_export_guard.sh LIB_DIR [OTHER_DIR ...]
if [ "$#" -lt 1 ]; then
  echo "usage: unused_export_guard.sh LIB_DIR [OTHER_DIR ...]"
  exit 2
fi
lib=${1%/}
files=$(find "$@" -name '.*' -prune -o \( -name '*.ml' -o -name '*.mli' \) -print |
  sort)
# shellcheck disable=SC2086 # the file list is split on purpose
awk -v lib="$lib/" '
  FNR == 1 {
    stem = FILENAME
    sub(/\.mli?$/, "", stem)
    in_lib = substr(FILENAME, 1, length(lib)) == lib && FILENAME ~ /\.mli$/
    delete seen
  }
  in_lib && match($0, /^val [a-z_][A-Za-z0-9_'"'"']*/) {
    name = substr($0, 5, RLENGTH - 4)
    nvals++
    val_stem[nvals] = stem
    val_name[nvals] = name
  }
  {
    n = split($0, words, /[^A-Za-z0-9_'"'"']+/)
    for (i = 1; i <= n; i++) {
      w = words[i]
      if (w == "" || w in seen) continue
      seen[w] = 1
      if (!(w in first)) first[w] = stem
      else if (first[w] != stem) multi[w] = 1
    }
  }
  END {
    if (nvals == 0) {
      print "unused_export_guard: no vals found under " lib
      exit 2
    }
    status = 0
    for (i = 1; i <= nvals; i++) {
      w = val_name[i]
      if (w in multi || first[w] != val_stem[i]) continue
      m = val_stem[i]
      sub(/.*\//, "", m)
      m = toupper(substr(m, 1, 1)) substr(m, 2)
      print "unused_export_guard: " m "." w " (" val_stem[i] \
        ".mli) is named by no other module"
      status = 1
    }
    exit status
  }' $files
