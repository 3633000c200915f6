#!/usr/bin/env bash
# Counts the non-test lines of Rust under crates/*/src, per crate and in
# total: the figure a change that claims a line delta quotes before and
# after.
#
#   scripts/loc.sh
#
# A file's non-test lines are the lines above its first `#[cfg(test)]`
# (all its lines when it has none). A file its parent declares behind
# `#[cfg(test)] mod name;` is a test module as a whole and counts none.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'EOF'
import glob, os, re

# `#[cfg(test)]` followed by `mod name;`, on one line or on the next.
TEST_MOD = re.compile(r"#\[cfg\(test\)\]\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")

def lines(path):
    with open(path) as f:
        return f.read().splitlines()

def test_modules(path):
    """The files `path` declares behind `#[cfg(test)] mod name;`."""
    stem = os.path.splitext(os.path.basename(path))[0]
    base = os.path.dirname(path)
    if stem not in ("lib", "main", "mod"):
        base = os.path.join(base, stem)
    for name in TEST_MOD.findall("\n".join(lines(path))):
        yield os.path.join(base, name + ".rs")
        yield os.path.join(base, name, "mod.rs")

def non_test(path):
    body = lines(path)
    for i, line in enumerate(body):
        if line.strip() == "#[cfg(test)]":
            return i
    return len(body)

total = 0
for src in sorted(glob.glob("crates/*/src")):
    files = sorted(glob.glob(f"{src}/**/*.rs", recursive=True))
    skipped = {m for f in files for m in test_modules(f)}
    count = sum(non_test(f) for f in files if f not in skipped)
    print(f"{os.path.basename(os.path.dirname(src)):<10} {count:>6}")
    total += count
print(f"{'total':<10} {total:>6}")
EOF
