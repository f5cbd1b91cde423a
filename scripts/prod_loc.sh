#!/bin/sh
# Production lines of code, by the counting rule ROADMAP.md uses: every
# `.rs` file under `src/`, `crates/*/src` and `examples/` except
# `proptests.rs`, each counted up to (not including) the `#[cfg(test)]`
# that opens its `mod tests`, or whole when it has none.
#
# Usage: scripts/prod_loc.sh [ROOT]   (ROOT defaults to the repo root)
# Prints one line per file, then one per crate (`src/` and `examples/`
# count as crates of their own), then the total.
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"
find src crates/*/src examples -name '*.rs' ! -name proptests.rs 2>/dev/null | sort |
  while read -r f; do
    awk -v f="$f" '
      prev ~ /^#\[cfg\(test\)\]$/ && /^mod tests/ { n = NR - 2; exit }
      { prev = $0 }
      END { if (n == "") n = NR; print n, f }' "$f"
  done |
  awk '{
      print
      split($2, p, "/")
      crate = (p[1] == "crates") ? p[2] : p[1]
      by[crate] += $1; total += $1
    }
    END {
      for (c in by) print by[c], c | "sort -k2"
      close("sort -k2")
      print total, "total"
    }'
