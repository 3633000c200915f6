#!/usr/bin/env bash
# One command for the whole benchmark.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
#       every workload, plain (end-to-end metrics) then traced (per-layer
#       metrics); results under benchmark/out/
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result as JSON
#
# Builds the harness from source first (offline, its own workspace), into
# $CARGO_TARGET_DIR when set, else benchmark/target. Spill files go to a
# fresh directory under benchmark/out/, inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
export CARGO_NET_OFFLINE=true

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/ssdtrain-benchmark"

out="$here/out"
mkdir -p "$out"
spill="$(mktemp -d "$out/spill.XXXXXX")"
trap 'rm -rf "$spill"' EXIT
export TMPDIR="$spill"

single=0
for arg in "$@"; do
    [ "$arg" = "--workload" ] && single=1
done
if [ "$single" = 1 ]; then
    "$bin" --out "$out" "$@"
    exit $?
fi

status=0
for workload in func_keep func_offload_ssd replay_tiered_segments sym_deep_tiered; do
    for trace in 0 1; do
        "$bin" --out "$out" --workload "$workload" --trace "$trace" "$@" | tee "$spill/last.txt"
        tail -n 1 "$spill/last.txt" | grep -q '"correct": true' || status=1
        echo
    done
done
echo "spill files went to $(stat -f -c %T "$spill" 2>/dev/null || echo unknown) at $spill" >&2
exit $status
