//! The paper's claims as a gate: each exhibit's rows are computed by the
//! same function its binary prints from (`ssdtrain_bench::*_rows`), and
//! the claims EXPERIMENTS.md reports are asserted here, so a change
//! that breaks the reproduction fails tier-1 instead of going stale in
//! prose. One paper exhibit so far (ROADMAP direction 1(i)), plus the
//! three `bench_*` reports whose orderings the design rests on.

use ssdtrain::{OffloadClass, TraceSink};
use ssdtrain_bench::{
    capacity_rows, capacity_timings, fig10_rows, io_rows, tiering_rows, CapacityTiming,
};
use ssdtrain_simhw::SystemConfig;
use ssdtrain_train::StepMetrics;

/// Figure 10 — "almost no performance overhead in all cases": offload
/// I/O is fully overlapped with compute on every cell, and the
/// activation peak drops by the recorded share.
#[test]
fn fig10_offloading_is_free_and_cuts_the_peak() {
    // Peak cut per cell, percent, in row order (BERT, GPT, T5 over
    // H8192 L4, H12288 L3, H16384 L2). The paper reports 28–47 % on its testbed; these
    // are this simulator's, pinned so a planner or barrier change that
    // trades memory for time shows up here.
    let peak_cut = [58, 44, 20, 58, 44, 20, 63, 48, 30];
    let rows = fig10_rows(&TraceSink::disabled());
    assert_eq!(rows.len(), peak_cut.len());
    for (row, want) in rows.iter().zip(peak_cut) {
        let label = row.label();
        assert!(
            row.overhead_pct() <= 0.5,
            "{label}: offloading costs {:+.2} % of the step",
            row.overhead_pct()
        );
        assert!(
            row.overhead_pct() >= 0.0,
            "{label}: offloading cannot beat pure compute"
        );
        let stats = &row.tba.offload;
        assert_eq!(stats.stall_secs, 0.0, "{label}: exposed load stall");
        assert_eq!(stats.store_stall_secs, 0.0, "{label}: exposed store stall");
        assert!(stats.offloaded_bytes > 0, "{label}: nothing was offloaded");
        assert_eq!(
            format!("{:.0}", row.peak_cut_pct()),
            want.to_string(),
            "{label}: activation peak cut"
        );
    }
}

/// `bench_tiering`, on a link-bound testbed (array write ×0.25; on the
/// stock one every backend hides its I/O and the rows read alike).
/// Forward's stores run on into backward, so tier link speed reaches
/// the *memory* a backend can afford to give up, not its step time.
#[test]
fn tiering_backends_hold_the_keep_step_and_order_by_what_they_offload() {
    let (keep, rows) = tiering_rows();
    let row = |label: &str| {
        let found = rows.iter().find(|r| r.label == label);
        found.unwrap_or_else(|| panic!("no {label} row"))
    };
    let bytes = |label: &str| row(label).metrics.offload.offloaded_bytes;
    let peak = |label: &str| row(label).metrics.act_peak_bytes;

    for r in &rows {
        assert!(
            r.metrics.step_secs <= keep.step_secs * 1.005,
            "{}: step {:.6} s exceeds keep-everything ({:.6} s) by more than 0.5 %",
            r.label,
            r.metrics.step_secs,
            keep.step_secs
        );
    }
    assert!(
        bytes("dram") > bytes("tiered-4g") && bytes("tiered-4g") > bytes("ssd"),
        "offloaded bytes must order dram > tiered-4g > ssd"
    );
    assert!(
        peak("dram") < peak("tiered-4g") && peak("tiered-4g") < peak("ssd"),
        "activation peak must order dram < tiered-4g < ssd"
    );
    // Two backends identical in every column means tier link speed
    // stopped reaching the planner.
    for (i, a) in rows.iter().enumerate() {
        for b in &rows[i + 1..] {
            assert_ne!(
                columns(&a.metrics),
                columns(&b.metrics),
                "{} and {} are identical in every column",
                a.label,
                b.label
            );
        }
    }
}

/// Everything a backend can move in a step: time, stalls, volume and
/// where the bytes landed. Two backends equal in all of it means the
/// model degenerated — link speed or placement stopped mattering.
fn columns(m: &StepMetrics) -> impl PartialEq + std::fmt::Debug + '_ {
    let tiers = m.offload.tiers.iter();
    let traffic: Vec<_> = tiers
        .map(|t| {
            let moved_in = (t.spilled_in_bytes, t.demoted_in_bytes);
            (&t.name, t.bytes_written, t.bytes_read, moved_in)
        })
        .collect();
    let stalls = (m.offload.store_stall_secs, m.offload.stall_secs);
    let spilled = m.offload.spilled_bytes;
    let volume = (m.offload.offloaded_bytes, m.act_peak_bytes, spilled);
    (m.step_secs, stalls, volume, traffic)
}

/// `bench_capacity`: offloading optimizer state to the array buys model
/// size the bounded host pool cannot, and the overlapped optimizer
/// update exposes strictly less time than the inline one.
#[test]
fn capacity_array_backends_outgrow_the_host_pool_and_overlap_hides_the_update() {
    let rows = capacity_rows();
    let max_hidden = |label: &str, overlap: bool| {
        let found = rows
            .iter()
            .find(|r| r.label == label && r.overlap == overlap);
        found.unwrap_or_else(|| panic!("no {label} row")).max_hidden
    };
    for overlap in [false, true] {
        let dram = max_hidden("dram", overlap);
        for label in ["ssd", "tiered-4g"] {
            assert!(
                max_hidden(label, overlap) > dram,
                "overlap={overlap}: {label} max_hidden must exceed dram-only ({dram})"
            );
        }
    }
    let timings = capacity_timings();
    assert_eq!(timings.len(), 3, "one timing per backend");
    for t in &timings {
        assert!(
            t.opt_exposed_overlap < t.opt_secs_inline,
            "{}: overlapped exposure ({} s) must stay below the inline update ({} s)",
            t.backend,
            t.opt_exposed_overlap,
            t.opt_secs_inline
        );
    }
    // The same rule as the tiering gate: no two backends equal in every
    // column.
    for (i, a) in timings.iter().enumerate() {
        for b in &timings[i + 1..] {
            assert_ne!(
                timing_columns(a),
                timing_columns(b),
                "{} and {} are identical in every column",
                a.backend,
                b.backend
            );
        }
    }
    // The optimizer columns *are* equal across backends, and for a
    // reason: the inline update is its state loads — every gradient and
    // momentum byte once — and every backend's read link is the GPU's
    // PCIe link (the array reads faster than PCIe carries). Assert that,
    // not the coincidence.
    let system = SystemConfig::dac_testbed();
    let read_bps = system.host_offload_bps();
    assert_eq!(
        system.offload_read_bps(),
        read_bps,
        "array reads are PCIe-bound"
    );
    for t in &timings {
        let state = [OffloadClass::Gradient, OffloadClass::OptimizerState];
        let classes = state.iter().filter_map(|c| t.metrics[0].offload.class(*c));
        let loaded: u64 = classes.map(|c| c.reloaded_bytes).sum();
        let expected = loaded as f64 / read_bps;
        assert!(
            (t.opt_secs_inline - expected).abs() <= 1e-9 * expected,
            "{}: inline update {} s is not its {} state bytes at the read rate ({} s)",
            t.backend,
            t.opt_secs_inline,
            loaded,
            expected
        );
        assert_eq!(
            t.opt_exposed_overlap, timings[0].opt_exposed_overlap,
            "{}: equal read links must expose the same overlapped update",
            t.backend
        );
    }
}

fn timing_columns(t: &CapacityTiming) -> impl PartialEq + std::fmt::Debug + '_ {
    (columns(&t.metrics[0]), columns(&t.metrics[1]))
}

/// `bench_io`: write coalescing pays — effective WAF and step time
/// strictly below the per-tensor prefetching baseline — and the group
/// look-ahead stalls backward no more than on-demand loads do, nor more
/// than the per-tensor depth-2 prefetcher it replaces.
#[test]
fn io_coalescing_pays_and_group_prefetch_stays_bounded() {
    let rows = io_rows();
    let row = |name: &str| {
        let found = rows.iter().find(|r| r.arm.name == name);
        found.unwrap_or_else(|| panic!("no {name} arm"))
    };
    let base = row("per-tensor-depth2");
    let ondemand = row("per-tensor-ondemand");
    let coalesced: Vec<_> = rows
        .iter()
        .filter(|r| r.arm.name.starts_with("coalesced-"))
        .collect();
    assert!(coalesced.len() >= 2, "the segment-size axis needs two arms");
    for r in coalesced {
        let name = r.arm.name;
        assert!(r.offload.coalesce_segments > 0, "{name} sealed no segments");
        assert!(r.waf < base.waf, "{name}: waf {} vs {}", r.waf, base.waf);
        assert!(
            r.step_secs < base.step_secs,
            "{name}: step {} s vs {} s",
            r.step_secs,
            base.step_secs
        );
        assert!(
            r.offload.stall_secs <= ondemand.offload.stall_secs,
            "{name}: load stall {} s exceeds on-demand ({} s)",
            r.offload.stall_secs,
            ondemand.offload.stall_secs
        );
        assert!(
            r.offload.stall_secs <= base.offload.stall_secs,
            "{name}: load stall {} s exceeds per-tensor depth-2 prefetch ({} s)",
            r.offload.stall_secs,
            base.offload.stall_secs
        );
    }
}
