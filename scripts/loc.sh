#!/bin/sh
# Line counts of the program: every tracked .ml/.mli under lib/ and bin/.
#
#   scripts/loc.sh          # the working tree's tracked files
#   scripts/loc.sh REV      # the files as committed at git revision REV
#
# Prints two counts:
#   lines  the `wc -l` total
#   code   the same without blank lines and without lines that hold
#          only comments. Comments nest, and a string or character
#          literal opens or closes none.
set -eu

cd "$(dirname "$0")/.."

rev=${1:-}
if [ -n "$rev" ]; then
  files=$(git ls-tree -r --name-only "$rev" -- lib bin | grep -E '\.mli?$')
else
  files=$(git ls-files -- lib bin | grep -E '\.mli?$')
fi

for f in $files; do
  if [ -n "$rev" ]; then git show "$rev:$f"; else cat "$f"; fi
done | awk '
  # depth: open comments; instr: inside a string literal (which may
  # span lines, in code and in comments alike)
  BEGIN { depth = 0; instr = 0; lines = 0; code = 0 }
  {
    lines++
    s = $0; n = length(s); seen = 0; i = 1
    while (i <= n) {
      c = substr(s, i, 1); c2 = substr(s, i, 2)
      if (instr) {
        if (c == "\\") i++
        else if (c == "\"") instr = 0
        if (depth == 0) seen = 1
        i++
      } else if (c2 == "(*") { depth++; i += 2 }
      else if (depth > 0 && c2 == "*)") { depth--; i += 2 }
      else if (c == "\"") { instr = 1; if (depth == 0) seen = 1; i++ }
      else if (c == "'\''" && substr(s, i + 1, 1) == "\\") {
        # an escaped character literal: skip to its closing quote
        j = index(substr(s, i + 3), "'\''")
        if (depth == 0) seen = 1
        i += (j > 0 ? j + 3 : 1)
      } else if (c == "'\''" && substr(s, i + 2, 1) == "'\''") {
        # a character literal such as the double quote: skip it whole
        if (depth == 0) seen = 1; i += 3
      } else {
        if (depth == 0 && c != " " && c != "\t" && c != "\r") seen = 1
        i++
      }
    }
    if (seen) code++
  }
  END { printf "lines %d\ncode %d\n", lines, code }
'
