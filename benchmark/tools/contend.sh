#!/usr/bin/env bash
# Two same-priority busy-loop neighbours: on a 2-core host every thread of
# the benchmark then shares its core. Used for the README's noisy-set table.
#
#   bash benchmark/tools/contend.sh <command...>   run the command among them
#
# The neighbours are stopped and waited for when the command ends, however
# it ends.
set -u
pids=()
for _ in 1 2; do
    ( while :; do :; done ) &
    pids+=($!)
done
stop() {
    kill "${pids[@]}" 2>/dev/null
    wait "${pids[@]}" 2>/dev/null
}
trap stop EXIT
trap 'exit 130' INT TERM
"$@"
