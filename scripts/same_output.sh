#!/usr/bin/env bash
# Checks that a change leaves every exhibit's output as it was: builds
# `rev` (default HEAD~1) from `git archive` in a temporary directory with
# its own CARGO_TARGET_DIR, runs every exhibit bin and every example in
# release on both trees, and prints the diff of every stdout that
# differs. Exits non-zero at the end if any did.
#
#   scripts/same_output.sh [rev]
#
# The working tree is compared as it stands, uncommitted edits included.
# Every binary is deterministic (seeded clock and RNG), so any difference
# is a change in what the program computes or prints. Each binary runs
# from the root of its own tree, so the CSV mirrors it writes stay there.
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
if [ ${#differ[@]} -gt 0 ]; then
    echo "${#differ[@]} of $count outputs differ from $rev: ${differ[*]}" >&2
    exit 1
fi
echo "all $count outputs are the same as at $rev"
