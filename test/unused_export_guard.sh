#!/bin/sh
# Fails, naming Module.name, when a top-level val of an interface under the
# library tree is named by no .ml/.mli outside its own module: an export
# nothing reads should leave the interface (and the code, if its own module
# does not use it either).
#
# A use is code in another module that writes Module.name (the last module
# of a path: Lib.Module.name counts), or that opens or includes Module
# (open, open!, include, let open, or a local Module.( ... )) and names
# name anywhere in the same file. Comments and string literals are not
# code, so a name that appears only there is no use. Tests count as users:
# the module guard already demands a non-test user for every module. A
# module is the pair DIR/NAME.ml and DIR/NAME.mli, so examples/degradation.ml
# is not lib/check/degradation's. One awk pass over every source reads the
# vals and the uses together.
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
LC_ALL=C awk -v lib="$lib/" '
  # The code of one line: comments (nested, and spanning lines) and the
  # contents of string literals become spaces. A string inside a comment
  # is lexed as a string, as OCaml does, and a character literal such as
  # the double quote between single quotes opens nothing.
  function code(line,    out, i, len, c, d) {
    out = ""
    len = length(line)
    for (i = 1; i <= len; i++) {
      c = substr(line, i, 1)
      d = substr(line, i, 2)
      if (in_str) {
        if (c == "\\") i++
        else if (c == "\"") in_str = 0
        continue
      }
      if (c == "\"") { in_str = 1; out = out " "; continue }
      if (d == "(*") { depth++; i++; out = out " "; continue }
      if (depth > 0) {
        if (d == "*)") { depth--; i++ }
        continue
      }
      if (c == "'"'"'" && substr(line, i + 2, 1) == "'"'"'") {
        out = out "   "; i += 2; continue
      }
      if (d == "'"'"'\\") {
        while (i < len && substr(line, i + 1, 1) != "'"'"'") i++
        i++; out = out " "; continue
      }
      out = out c
    }
    return out
  }
  function use(key) {
    if (!(key in ufirst)) ufirst[key] = stem
    else if (ufirst[key] != stem) umulti[key] = 1
  }
  # A module the file opened makes every name the file writes a use.
  function flush(    m, w) {
    for (m in opened) for (w in words) use(m "." w)
    delete opened
    delete words
  }
  FNR == 1 {
    flush()
    stem = FILENAME
    sub(/\.mli?$/, "", stem)
    in_lib = substr(FILENAME, 1, length(lib)) == lib && FILENAME ~ /\.mli$/
    depth = 0
    in_str = 0
  }
  {
    s = code($0)
    if (in_lib && match(s, /^val [a-z_][A-Za-z0-9_'"'"']*/)) {
      nvals++
      val_stem[nvals] = stem
      val_name[nvals] = substr(s, 5, RLENGTH - 4)
    }
    t = s
    while (match(t, /(open!?|include)[ ]+[A-Z][A-Za-z0-9_.'"'"']*/)) {
      m = substr(t, RSTART, RLENGTH)
      sub(/.*[ .]/, "", m)
      opened[m] = 1
      t = substr(t, RSTART + RLENGTH)
    }
    t = s
    while (match(t, /[A-Z][A-Za-z0-9_'"'"']*\.[a-z_(][A-Za-z0-9_'"'"']*/)) {
      if (RSTART == 1 || substr(t, RSTART - 1, 1) !~ /[A-Za-z0-9_'"'"']/) {
        m = substr(t, RSTART, RLENGTH)
        if (m ~ /\.\(/) sub(/\.\(.*/, "", m)
        if (m ~ /\./) use(m)
        else opened[m] = 1
      }
      t = substr(t, RSTART + RLENGTH)
    }
    n = split(s, ws, /[^A-Za-z0-9_'"'"']+/)
    for (i = 1; i <= n; i++) if (ws[i] ~ /^[a-z_]/) words[ws[i]] = 1
  }
  END {
    flush()
    if (nvals == 0) {
      print "unused_export_guard: no vals found under " lib
      exit 2
    }
    status = 0
    for (i = 1; i <= nvals; i++) {
      m = val_stem[i]
      sub(/.*\//, "", m)
      m = toupper(substr(m, 1, 1)) substr(m, 2)
      key = m "." val_name[i]
      if (key in umulti || (key in ufirst && ufirst[key] != val_stem[i]))
        continue
      print "unused_export_guard: " key " (" val_stem[i] \
        ".mli) is named by no other module"
      status = 1
    }
    exit status
  }' $files
