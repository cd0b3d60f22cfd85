#!/bin/sh
# Non-test source lines per crate: every crates/*/src/**/*.rs counted up to
# (not including) its first `#[cfg(test)]` / `#[cfg(all(test` line — the rule
# the simplicity PRs report their line deltas under. Blank and comment lines
# count; files under tests/, benches/ and examples/ do not.
#
#   sh tools/nontest-loc.sh [ROOT]     (default: the checkout this script is in)
set -eu

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"

total=0
printf '%-14s %8s\n' crate lines
for dir in crates/*/; do
    [ -d "${dir}src" ] || continue
    lines=$(find "${dir}src" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\((test|all\(test)/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' {} +)
    printf '%-14s %8d\n' "$(basename "$dir")" "$lines"
    total=$((total + lines))
done
printf '%-14s %8d\n' total "$total"
