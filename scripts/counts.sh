#!/usr/bin/env bash
# Prints the three size counts the ROADMAP and CHANGES.md cite:
#
#   non-test lines  lines of every .rs file under crates/*/src and src,
#                   each counted up to its first column-0 #[cfg(test)];
#   *.rs lines      lines of every tracked .rs file outside reprobench/;
#   panic sites     .unwrap(), .expect( and panic!( occurrences in the
#                   non-test lines, with // comments stripped.
#
# Usage: scripts/counts.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

non_test() { # prints the non-test part of every library and binary file
  find crates/*/src src -name '*.rs' -print0 | sort -z \
    | xargs -0 awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 } live'
}

echo "non-test lines: $(non_test | wc -l)"
echo "*.rs lines: $(git ls-files -z '*.rs' ':!reprobench/' | xargs -0 cat | wc -l)"
echo "panic sites: $(non_test | sed 's|//.*||' \
  | grep -o -E '\.unwrap\(\)|\.expect\(|panic!\(' | wc -l)"
