#!/usr/bin/env bash
# Checks that a change leaves every exhibit's output as it was: builds
# `rev` (default HEAD~1) from `git archive` in a temporary directory with
# its own CARGO_TARGET_DIR, runs every exhibit bin and every example in
# release on both trees, and prints the diff of every stdout that
# differs. It then runs the binaries that take `--trace` (the
# `ablations`, `fig10_overhead` and `tab2_comparison` bins and the
# `quickstart` example) traced on both trees and diffs their stdout
# (`explain` tables included) and their Chrome-trace JSON. Exits
# non-zero at the end if any output differed.
#
#   scripts/same_output.sh [rev]
#
# The working tree is compared as it stands, uncommitted edits included.
# Every binary is deterministic (seeded clock and RNG), so any difference
# is a change in what the program computes or prints. Each untraced
# binary runs from the root of its own tree, so the CSV mirrors it writes
# stay there; each traced one runs in an empty directory of its own under
# the temporary one and writes its trace to the same relative path there,
# so the path it prints matches too.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

rev=${1:-HEAD~1}
here=$PWD
here_target=${CARGO_TARGET_DIR:-$here/target}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git archive --format=tar "$rev" | tar -x -C "$tmp/tree"

build() { # <tree> <target dir>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build -q --release -p ssdtrain-bench --bins \
        && CARGO_TARGET_DIR=$2 cargo build -q --release --examples)
}
echo "building $rev in $tmp/tree"
build "$tmp/tree" "$tmp/target"
echo "building the working tree"
build "$here" "$here_target"

# <name> <path under the target's release dir>
compare() {
    local name=$1 rel=$2
    (cd "$tmp/tree" && "$tmp/target/release/$rel") >"$tmp/before.out"
    (cd "$here" && "$here_target/release/$rel") >"$tmp/after.out"
    if diff -u "$tmp/before.out" "$tmp/after.out" \
        --label "$name@$rev" --label "$name (working tree)"; then
        echo "same: $name"
    else
        echo "DIFFERS: $name prints something else than at $rev" >&2
        differ+=("$name")
    fi
}

# <name> <path under the target's release dir>
compare_traced() {
    local name="$1 --trace" rel=$2 json=trace.json
    rm -rf "$tmp/run-before" "$tmp/run-after"
    mkdir "$tmp/run-before" "$tmp/run-after"
    (cd "$tmp/run-before" && "$tmp/target/release/$rel" --trace "$json") >"$tmp/before.out"
    (cd "$tmp/run-after" && "$here_target/release/$rel" --trace "$json") >"$tmp/after.out"
    if diff -u "$tmp/before.out" "$tmp/after.out" \
        --label "$name@$rev" --label "$name (working tree)" \
        && cmp "$tmp/run-before/$json" "$tmp/run-after/$json"; then
        echo "same: $name"
    else
        echo "DIFFERS: $name prints or traces something else than at $rev" >&2
        differ+=("$name")
    fi
}

count=0
differ=()
for src in crates/bench/src/bin/*.rs; do
    name=$(basename "$src" .rs)
    compare "$name" "$name"
    count=$((count + 1))
done
for src in examples/*.rs; do
    name=$(basename "$src" .rs)
    compare "example $name" "examples/$name"
    count=$((count + 1))
done
for name in ablations fig10_overhead tab2_comparison; do
    compare_traced "$name" "$name"
    count=$((count + 1))
done
compare_traced "example quickstart" examples/quickstart
count=$((count + 1))
if [ ${#differ[@]} -gt 0 ]; then
    echo "${#differ[@]} of $count outputs differ from $rev: ${differ[*]}" >&2
    exit 1
fi
echo "all $count outputs are the same as at $rev"
