#!/usr/bin/env bash
# The checks a CI pipeline runs on every change. Builds are offline by
# design: all third-party deps are vendored shims (see DESIGN.md §4).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

# Every product crate carries `#![deny(missing_docs)]`, so this build is
# also the documentation-coverage gate.
cargo build --release
# `default-members` makes this the whole workspace (every crate plus the
# root suite), not the root suite alone.
cargo test -q
# The observability golden file must stay byte-stable (regenerate with
# UPDATE_GOLDEN=1 after intentional trace/exporter changes).
cargo test -q --test trace_observability
# Tier timing must stay differential: link speeds reach the step clock
# (tier_timing) and the cost model's predictions track the simulator
# (proptest_invariants). Run explicitly so a test-harness filter can
# never silently drop them.
cargo test -q --test tier_timing
cargo test -q --test proptest_invariants
# The offload-class differential suite: losses must stay bit-identical
# across the in-memory, inline-offloaded and overlapped optimizer
# paths, healthy or faulted. Run explicitly for the same reason.
cargo test -q --test optimizer_offload
# The fault × recovery matrix must hold through the coalesced/prefetched
# I/O path with bit-identical losses. Run explicitly for the same reason.
cargo test -q --test fault_injection
# The paper's claims and the bench reports' orderings, asserted on the
# rows the exhibit binaries print. Run explicitly for the same reason.
cargo test -q --test paper_claims
# The lint's own contract: golden diagnostics over the seeded fixture
# trees (regenerate with UPDATE_GOLDEN=1 after intentional rule
# changes) plus the --explain CLI surface. Run explicitly so a harness
# filter can never silently drop the analyzer's regression net. (Its
# unit tests, run above, hold the doc-drift gate: one DESIGN.md §7
# catalogue row per registry rule.)
cargo test -q -p ssdtrain-lint --test golden_diagnostics
cargo test -q -p ssdtrain-lint --test explain_cli
# The benchmark crate is its own workspace, so the tests above never
# compile it: a quick pass catches a source-incompatible change to the
# API it builds against, and its output checks (trace-vs-counter byte
# identity, checksum round trips, device writes = tier-counter stores)
# catch a broken store path before the benchmark pipeline does.
bash benchmark/run.sh --quick
cargo clippy --workspace -- -D warnings
# Project-invariant lint: sim-clock, panic-freedom and error discipline
# (see DESIGN.md §7). Exits non-zero on any violation.
# The full pass keeps the workspace clean; the --changed-only pass is
# what a PR pipeline gates on (diagnostics scoped to the files the
# branch touched, against the merge base with origin/main).
cargo run -p ssdtrain-lint --release -- --format json
cargo run -p ssdtrain-lint --release -- --changed-only --format json
# SARIF is what code-scanning dashboards ingest: the run must stay clean
# in that mode too, and the report must be byte-stable — two runs over
# an unchanged tree may not differ, or diff-based upload dedup breaks.
cargo run -p ssdtrain-lint --release -- --format sarif > target/lint-run1.sarif
cargo run -p ssdtrain-lint --release -- --format sarif > target/lint-run2.sarif
cmp target/lint-run1.sarif target/lint-run2.sarif
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps
