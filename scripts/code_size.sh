#!/usr/bin/env bash
# Prints the size of every crate's library code: one row per crate
# (`crates/*/src` and the facade's `src/`) plus a workspace `total` row, with
#
#   lines   non-test lines: each file up to its first top-level `#[cfg(test)]`
#   items   `pub` items, not counting `pub use` re-exports
#   fns     `pub fn` items
#   knobs   public fields of `pub struct *Config` types: the values a caller
#           can set
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

# Counts `pub name:` lines between `pub struct FooConfig {` and its closing
# brace; comment lines are skipped so braces in docs do not count.
knobs() {
    awk '
        /^[[:space:]]*pub struct [A-Za-z0-9_]*Config[[:space:]]*(<[^>]*>)?[[:space:]]*\{/ { inside = 1; depth = 0 }
        inside && !/^[[:space:]]*\/\// {
            if ($0 ~ /^[[:space:]]*pub [a-z_][a-z0-9_]*:/) n++
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth == 0) inside = 0
        }
        END { print n + 0 }
    '
}

row='%-22s %7s %6s %5s %5s\n'
printf "$row" crate lines items fns knobs
total_lines=0 total_items=0 total_fns=0 total_knobs=0
for dir in crates/*/src src; do
    code=$(non_test "$dir"; echo x)
    code=${code%x}
    lines=$(printf '%s' "$code" | wc -l)
    items=$(printf '%s' "$code" | grep -E '^\s*pub ' | grep -vcE '^\s*pub use ' || true)
    fns=$(printf '%s' "$code" | grep -cE '^\s*pub fn ' || true)
    knob=$(printf '%s' "$code" | knobs)
    printf "$row" "$dir" "$lines" "$items" "$fns" "$knob"
    total_lines=$((total_lines + lines))
    total_items=$((total_items + items))
    total_fns=$((total_fns + fns))
    total_knobs=$((total_knobs + knob))
done
printf "$row" total "$total_lines" "$total_items" "$total_fns" "$total_knobs"
