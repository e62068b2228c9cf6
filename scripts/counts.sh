#!/usr/bin/env bash
# Prints the four size counts the ROADMAP and CHANGES.md cite:
#
#   non-test lines       lines of every .rs file under crates/*/src and
#                        src, each counted up to its first column-0
#                        #[cfg(test)];
#   *.rs lines           lines of every tracked .rs file outside
#                        reprobench/;
#   panic sites          .unwrap(), .expect( and panic!( occurrences in
#                        the non-test lines, with // comments stripped;
#   test-only pub items  names of pub fn/struct/enum/trait/const/type
#                        items in the non-test lines that occur only
#                        once (at their definition) in the non-test
#                        lines, benches, examples and reprobench/probe,
#                        // comments stripped. The scan matches by name,
#                        so it misses overloads and lists items reached
#                        only through traits or macros.
#
# Usage: scripts/counts.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

non_test() { # prints the non-test part of every library and binary file
  find crates/*/src src -name '*.rs' -print0 | sort -z \
    | xargs -0 awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 } live'
}

# Prints each pub item name of the non-test lines that occurs only once
# in them, the benches, the examples and reprobench/probe.
test_only_pub() {
  { non_test
    find crates/*/benches examples reprobench/probe/src -name '*.rs' -print0 | sort -z \
      | xargs -0 cat
  } | sed 's|//.*||' | grep -o -E '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c \
    | awk '$1 == 1 { print $2 }' | sort > "$once"
  non_test | sed 's|//.*||' \
    | grep -o -E '^[[:space:]]*pub (const )?(fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*' \
    | awk '{ print $NF }' | sort -u | comm -12 - "$once"
}
once=$(mktemp)
trap 'rm -f "$once"' EXIT

echo "non-test lines: $(non_test | wc -l)"
echo "*.rs lines: $(git ls-files -z '*.rs' ':!reprobench/' | xargs -0 cat | wc -l)"
echo "panic sites: $(non_test | sed 's|//.*||' \
  | grep -o -E '\.unwrap\(\)|\.expect\(|panic!\(' | wc -l)"
echo "test-only pub items: $(test_only_pub | wc -l)"
