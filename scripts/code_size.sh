#!/usr/bin/env bash
# Prints the size of every crate's library code: one row per crate
# (`crates/*/src` and the facade's `src/`) with
#
#   lines   non-test lines: each file up to its first top-level `#[cfg(test)]`
#   items   `pub` items, not counting `pub use` re-exports
#   fns     `pub fn` items
#
# Informational only: there is no threshold.  Run from the repository root:
#
#   scripts/code_size.sh
set -euo pipefail

cd "$(dirname "$0")/.."

non_test() {
    find "$1" -name '*.rs' | sort | while read -r f; do
        awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f"
    done
}

printf '%-22s %7s %6s %5s\n' crate lines items fns
for dir in crates/*/src src; do
    code=$(non_test "$dir"; echo x)
    code=${code%x}
    lines=$(printf '%s' "$code" | wc -l)
    items=$(printf '%s' "$code" | grep -E '^\s*pub ' | grep -vcE '^\s*pub use ' || true)
    fns=$(printf '%s' "$code" | grep -cE '^\s*pub fn ' || true)
    printf '%-22s %7d %6d %5d\n' "$dir" "$lines" "$items" "$fns"
done
