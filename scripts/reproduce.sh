#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation plus the
# ablation, upscaling, tiering, capacity and I/O studies: every bin under
# crates/bench/src/bin. Tables are printed and mirrored to results/*.csv.
# Takes a few minutes (release build + symbolic runs).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p ssdtrain-bench --bins
for src in crates/bench/src/bin/*.rs; do
  bin=$(basename "$src" .rs)
  echo
  echo "=============================================================="
  echo ">>> $bin"
  echo "=============================================================="
  cargo run --release -q -p ssdtrain-bench --bin "$bin"
done

echo
echo "CSV mirrors written to results/"
