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
# (tier_timing), and the I/O queues keep their FIFO and demand-first
# schedules (proptest_invariants). Run explicitly so a test-harness
# filter can never silently drop them. The cost model's prediction of
# the simulator and the tier ledger's properties (every stored byte in
# exactly one tier, spills and demotions conserving reservations,
# per-tier counters summing to the flat aggregate) are unit tests of
# `ssdtrain` (`costmodel.rs`, `tier.rs`), which `cargo test -q` runs:
# the ledger is crate-private.
cargo test -q --test tier_timing
cargo test -q --test proptest_invariants
# The offload-class differential suite: losses must stay bit-identical
# across the in-memory, inline-offloaded and overlapped optimizer
# paths, healthy or faulted. Run explicitly for the same reason.
cargo test -q --test optimizer_offload
# The numeric path's arithmetic, pinned as loss and gradient bits of
# three-step GPT, BERT and T5 runs: an op or kernel rewrite must keep
# every bit. Run explicitly for the same reason.
cargo test -q --test kernel_arithmetic
# The same pins with autograd and the models optimised too, as they ship:
# tier-1 builds only ssdtrain-tensor at opt-level 3 (root Cargo.toml), so
# its own tests already check the matmul widths there.
cargo test -q --release --test kernel_arithmetic
# GELU's tanh is a port of glibc 2.36's `tanhf`: this checks it against
# libm on all 2^32 inputs, at every vector width the CPU runs, and is the
# proof that the port keeps every bit (about 2.5 minutes on two cores in
# release).
cargo test -q --release -p ssdtrain-tensor -- --ignored tanh_port_matches_libm_on_every_f32
# The just-in-time reload schedule: a profiled step peaks at the
# no-prefetch floor without a stall, T5's cross-attention included, and a
# schedule that does not fit its step never changes a number. Run
# explicitly for the same reason.
cargo test -q --test prefetch_timing
# The fault × recovery matrix must hold through the coalesced/prefetched
# I/O path with bit-identical losses. Run explicitly for the same reason.
cargo test -q --test fault_injection
# The paper's claims and the bench reports' orderings, asserted on the
# rows the exhibit binaries print. Run explicitly for the same reason.
cargo test -q --test paper_claims
# The crates composed end to end: the analysis models track the measured
# steps, and the memory ledger counts what the device holds (a warm
# step's total peak includes its parameters, and its allocator replay
# reserves at least that peak). Run explicitly for the same reason.
cargo test -q --test cross_crate
# One lock per object: a second thread polling every read-only accessor
# of a live cache (stats, plan, the tiers' names and links) neither
# deadlocks the step nor moves a loss bit. Run explicitly for the same
# reason.
cargo test -q --test monitor_thread
# The autograd tape's allocation contract: nothing allocated per node,
# nothing per module scope or stateful op on a kept graph (its reset
# tape recycles scope frames and op boxes), a per-node budget for a
# symbolic BERT step, and ops that allocate only the tensors they
# return; the cache's: a warm offload step allocates nothing per saved
# tensor; the memory model's: a warm memory read whose last result was
# dropped allocates nothing (the tracker refills the timeline it lent
# and the allocator replay keeps its pools), and a held timeline keeps
# its points; and the session's graph: a warm step reuses the one graph
# and command schedule the session keeps, its backward scratch
# included, within a pinned budget of calls and bytes. Run explicitly
# for the same reason.
cargo test -q --test alloc_budget
# The source rules clippy cannot hold (DESIGN.md §7): typed errors in
# public signatures (read by the test's own scanner, which blanks
# comments and literals first), and every product crate denying panics
# outside tests. Run explicitly for the same reason.
cargo test -q --test source_rules
# The examples that assert, which no test runs: the functional pipeline
# (single-GPU, pipelined and pipelined-plus-offloaded losses are
# bit-identical), fault tolerance (bit-identical losses under faults),
# the quickstart (its traced demo checks each step's `explain` table
# against the counters and prints it) and the tiered backends.
cargo run --release -q --example pipeline_training
cargo run --release -q --example fault_tolerance
mkdir -p target # absent when CARGO_TARGET_DIR points elsewhere
cargo run --release -q --example quickstart -- --trace target/quickstart_trace.json
cargo run --release -q --example tiered_backends
# The benchmark crate is its own workspace, so the tests above never
# compile it: a quick pass catches a source-incompatible change to the
# API it builds against, and its output checks (trace-vs-counter byte
# identity, checksum round trips, device writes = tier-counter stores)
# catch a broken store path before the benchmark pipeline does.
bash benchmark/run.sh --quick
# Host allocation counts must repeat from process to process: every map
# of the cache and the staging arena hashes with a fixed seed (DESIGN.md
# §7). A second process of each workload must print the figures the pass
# above wrote (about 70 s).
alloc_figures() { # one benchmark result as JSON on stdin
    python3 -c 'import json, sys; m = json.load(sys.stdin)["metrics"]
print(m["host_allocs_per_step"]["value"], m["host_alloc_mb_per_step"]["value"])'
}
for workload in sym_deep_tiered replay_tiered_segments func_offload_ssd func_keep; do
    first=$(alloc_figures <"benchmark/out/$workload.json")
    again=$(bash benchmark/run.sh --workload "$workload" --quick --trace 0 | tail -n 1 | alloc_figures)
    if [ "$first" != "$again" ]; then
        echo "$workload allocates differently in a second process: $first, then $again" >&2
        exit 1
    fi
done
# The benchmark crate's own tests, which `--quick` never runs: among them
# `bytes_round_trip_bit_exactly_through_both_tiers`, the one checksum
# round trip of the spill path through DRAM and SSD tiers.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
# Tests, examples and bins too: a leftover `.clone()` of a `Copy` type
# (`clippy::clone_on_copy`) hides in test code as easily as in a crate.
# This run also holds the project invariants (DESIGN.md §7): no wall
# clock (`clippy.toml`), no panicking construct in a product crate's
# library code, and a reason on every `#[allow]` / `#[expect]`.
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# Non-test lines per crate and in total, the figure a change quotes when
# it claims a line delta.
bash scripts/loc.sh
# Public docs: only this run catches a public doc that links a private
# item.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps
# Private items' docs too, the only check of the links in a private
# module's docs.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --document-private-items
