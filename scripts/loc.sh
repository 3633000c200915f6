#!/usr/bin/env bash
# Counts the non-test lines of Rust under crates/*/src, per crate and in
# total: the figure a change that claims a line delta quotes before and
# after. A last line counts every line of the git-tracked `.rs` files
# outside vendor/ (tests, examples and benchmark/ included), so code that
# moves into a test file does not read as removed.
#
#   scripts/loc.sh
#
# A file's non-test lines are the lines above its first `#[cfg(test)]`
# whose next item is a `mod` (all its lines when it has none); a
# `#[cfg(test)]` on a probe function inside the file does not end the
# count. A file its parent declares behind `#[cfg(test)] mod name;` is a
# test module as a whole and counts none.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'EOF'
import glob, os, re, subprocess

# `#[cfg(test)]` followed by `mod name;`, on one line or on the next.
TEST_MOD = re.compile(r"#\[cfg\(test\)\]\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")
# An item that opens a module: `mod`, `pub mod`, `pub(…) mod`.
MOD_ITEM = re.compile(r"(?:pub(?:\([^)]*\))?\s+)?mod\b")

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

def next_item(body, i):
    """The first line after `body[i]` that is not blank, a comment or an
    attribute."""
    for line in body[i + 1:]:
        line = line.strip()
        if line and not line.startswith(("//", "#[")):
            return line
    return ""

def non_test(path):
    body = lines(path)
    for i, line in enumerate(body):
        if line.strip() == "#[cfg(test)]" and MOD_ITEM.match(next_item(body, i)):
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

tracked = subprocess.run(["git", "ls-files", "*.rs"], capture_output=True, text=True, check=True)
rust = [f for f in tracked.stdout.splitlines() if not f.startswith("vendor/") and os.path.exists(f)]
print(f"{'tracked':<10} {sum(len(lines(f)) for f in rust):>6}  (all tracked .rs outside vendor/)")
EOF
