#!/bin/sh
# Names each `pub` item of one crate that nothing outside the crate reaches.
#
#   sh tools/pub-reach.sh CRATE [ROOT]     (CRATE: `dos-tensor` or `tensor`)
#
# The items are the `pub` (not `pub(crate)`) fns, consts, statics, structs,
# enums, traits, types and mods declared in crates/CRATE/src up to each
# file's first `#[cfg(test)]` line, the rule `nontest-loc.sh` counts by.
# "Outside" is every other crate's sources and tests, `benchmark/src`,
# `examples/` and `tests/`; the crate's own `tests/` do not count. An item
# is reached when its name appears there as a whole word on a line that is
# not a `//` comment. That is a by-name search, so a name another crate
# also declares counts as reached: the tool can miss a find, but what it
# names is named by nothing outside. A find can still be reached without
# its name, as the type of a reached item's field or return value; the
# compiler's `private_interfaces` lint tells which when it is demoted.
# Each find is `file:line: name`; the exit status is 0 either way.
set -eu

[ $# -ge 1 ] || { echo "usage: sh tools/pub-reach.sh CRATE [ROOT]" >&2; exit 2; }
root=${2:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"
dir=crates/${1#dos-}
[ -d "$dir/src" ] || { echo "no crate at $dir" >&2; exit 2; }

outside=$(mktemp)
trap 'rm -f "$outside"' EXIT
for d in crates/*/ benchmark/src examples tests; do
    if [ -d "$d" ] && [ "${d%/}" != "$dir" ]; then
        find "$d" -name '*.rs' -not -path '*/target/*'
    fi
done > "$outside"

find "$dir/src" -name '*.rs' | sort | while read -r f; do
    awk -v item='(fn|const|static|struct|enum|trait|type|mod|union)' '
        /^[[:space:]]*#\[cfg\((test|all\(test)/ { exit }
        match($0, "^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)?" \
                  item "[[:space:]]+[A-Za-z_][A-Za-z0-9_]*") {
            decl = substr($0, RSTART, RLENGTH)
            n = split(decl, w, /[[:space:]]+/)
            print FILENAME ":" FNR ": " w[n]
        }
    ' "$f"
done | while read -r at name; do
    if ! xargs grep -hw -- "$name" < "$outside" 2>/dev/null | grep -qv '^[[:space:]]*//'; then
        echo "$at $name"
    fi
done
