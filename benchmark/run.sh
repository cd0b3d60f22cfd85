#!/usr/bin/env bash
# Builds the benchmark from source and runs one of its commands.
#
#   bash benchmark/run.sh bench --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh run [--traced] [--smoke] [--seed N] [--out F]
#   bash benchmark/run.sh compare A.json B.json
#   bash benchmark/run.sh probe [--seconds S]
#   bash benchmark/run.sh schema
#
# Run it from the root of a checkout. The benchmark is a package of its own
# (benchmark/Cargo.toml, its own [workspace] and lock file) that
# path-depends on ../crates/dos and the shims, so the root workspace, its
# Cargo.lock and target/ are left alone. In a directory that holds only
# BENCHMARK.json and benchmark/ the build fails, and so does this script,
# without printing a result.
set -euo pipefail

t0_ns=$(date +%s%N)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

if [ $# -eq 0 ]; then
    set -- help
fi

# The driver sets CARGO_TARGET_DIR (relative to the checkout's root, which is
# the working directory); without it cargo uses benchmark/target.
target=${CARGO_TARGET_DIR:-$here/target}

# Build output goes to stderr: standard output carries only the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

cmd=$1
shift
if [ "$cmd" = bench ]; then
    # The budget of a run starts when this script did, build check included.
    exec "$target/release/dos-benchmark" bench --t0-ns "$t0_ns" "$@"
fi
exec "$target/release/dos-benchmark" "$cmd" "$@"
