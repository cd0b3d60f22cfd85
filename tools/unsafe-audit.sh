#!/bin/sh
# The `unsafe` inventory, held in CI: the keyword may appear in exactly the
# module(s) named in `allowed` (the module docs of crates/tensor/src/simd.rs
# and crates/core/src/lend.rs say why each needs it; the two test files beside
# them each hold a counting `#[global_allocator]`, which cannot be written
# without `unsafe impl GlobalAlloc`), every use there sits
# directly under a `// SAFETY:` comment, and every other crate root still
# carries `#![forbid(unsafe_code)]`.
# Comments and `unsafe_code` lint names do not count as uses.
#
#   sh tools/unsafe-audit.sh [ROOT]    (default: the checkout this script is in)
set -eu

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"

allowed="crates/tensor/src/simd.rs crates/core/src/lend.rs crates/train/tests/step_allocations.rs crates/runtime/tests/iteration_allocations.rs"
# The crates that hold the allowed modules are `deny` + one `allow` instead.
deny_roots="crates/tensor/src/lib.rs crates/core/src/lib.rs"

fail=0

# 1 + 2. Every use of the keyword: where it is, and what stands above it.
find crates shims examples -name '*.rs' | sort | xargs awk -v allowed=" $allowed " '
    FNR == 1 { safety = 0 }
    { code = $0; sub(/\/\/.*/, "", code) }
    code ~ /^[[:space:]]*$/ {
        # Comment lines accumulate above the next use; a blank line ends the run.
        if ($0 ~ /\/\/ SAFETY:/) safety = 1
        if ($0 ~ /^[[:space:]]*$/) safety = 0
        next
    }
    code ~ /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ {
        uses++
        if (!index(allowed, " " FILENAME " ")) why = "outside the allowed module(s)"
        else if (!safety) why = "without a `// SAFETY:` comment directly above"
        else why = ""
        if (why != "") { printf "%s:%d: `unsafe` %s\n", FILENAME, FNR, why; bad = 1 }
    }
    { safety = 0 }
    END { printf "%d uses of `unsafe`; allowed in:%s\n", uses, allowed; exit bad }
' || fail=1

# 3. Crate roots: `forbid` everywhere but the crate(s) of the allowed module.
for f in crates/*/src/lib.rs crates/*/src/main.rs crates/*/src/bin/*.rs; do
    [ -f "$f" ] || continue
    case " $deny_roots " in
        *" $f "*) want='#![deny(unsafe_code)]' ;;
        *) want='#![forbid(unsafe_code)]' ;;
    esac
    if ! grep -qxF "$want" "$f"; then
        printf '%s: crate root lacks %s\n' "$f" "$want"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "unsafe audit: FAILED"
    exit 1
fi
echo "unsafe audit: ok"
