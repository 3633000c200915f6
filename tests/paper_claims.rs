//! The paper's claims as a gate: each exhibit's rows are computed by the
//! same function its binary prints from (`ssdtrain_bench::*_rows`), and
//! the claims EXPERIMENTS.md reports are asserted here, so a change
//! that breaks the reproduction fails tier-1 instead of going stale in
//! prose. One paper exhibit so far (ROADMAP direction 1(i)), plus the
//! three `bench_*` reports whose orderings the design rests on and the
//! adaptive plan against the cutoff oracle.

use ssdtrain::{OffloadClass, TraceSink};
use ssdtrain_bench::{
    capacity_rows, capacity_timings, cutoff_sweeps, fig10_rows, io_rows, tiering_rows,
    CapacityTiming, TieringRow,
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
    let peak_cut = [76, 81, 73, 76, 81, 73, 75, 84, 78];
    // The same cut on the total footprint, everything resident on the
    // GPU (f32 parameters included) as the paper's Figure 7 counts it.
    let total_cut = [42, 28, 16, 42, 28, 16, 41, 25, 15];
    let rows = fig10_rows(&TraceSink::disabled());
    assert_eq!(rows.len(), peak_cut.len());
    for ((row, want), want_total) in rows.iter().zip(peak_cut).zip(total_cut) {
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
        let total = 1.0 - row.tba.total_peak_bytes as f64 / row.keep.total_peak_bytes as f64;
        assert_eq!(
            format!("{:.0}", total * 100.0),
            want_total.to_string(),
            "{label}: total-footprint peak cut"
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
    let named = |r: &TieringRow| (r.label, columns("", &r.metrics));
    assert_no_two_rows_equal(rows.iter().map(named).collect());
}

/// Everything a backend can move in a step, by name and as `Debug`
/// text: time, stalls, volume and where the bytes landed. Two backends
/// equal in all of it means the model degenerated — link speed or
/// placement stopped mattering.
fn columns(prefix: &str, m: &StepMetrics) -> Vec<(String, String)> {
    let o = &m.offload;
    let traffic: Vec<_> = o
        .tiers
        .iter()
        .map(|t| {
            let moved_in = (t.spilled_in_bytes, t.demoted_in_bytes);
            (&t.name, t.bytes_written, t.bytes_read, moved_in)
        })
        .collect();
    let volume = (o.offloaded_bytes, m.act_peak_bytes, o.spilled_bytes);
    [
        ("step", format!("{:?}", m.step_secs)),
        (
            "stalls",
            format!("{:?}", (o.store_stall_secs, o.stall_secs)),
        ),
        ("volume", format!("{volume:?}")),
        ("traffic", format!("{traffic:?}")),
    ]
    .into_iter()
    .map(|(name, text)| (format!("{prefix}{name}"), text))
    .collect()
}

/// Fails if two rows agree in every column, naming the pair and the
/// columns.
fn assert_no_two_rows_equal(rows: Vec<(&str, Vec<(String, String)>)>) {
    for (i, (a, ca)) in rows.iter().enumerate() {
        for (b, cb) in &rows[i + 1..] {
            assert!(
                ca != cb,
                "{a} and {b} are identical in every column: {:?}",
                ca.iter().map(|c| &c.0).collect::<Vec<_>>()
            );
        }
    }
}

/// ROADMAP direction 2's oracle: every gated configuration run at every
/// cutoff (`ssdtrain_bench::cutoff_sweep`). The adaptive plan's step is
/// within 1 % of the fastest cutoff's; its activation peak is no higher
/// than the oracle's — the lowest peak among those fast cutoffs — and
/// its bytes written are within 5 % of the oracle's, the fewest at that
/// peak. `sym_deep_tiered` runs as a 12-layer twin here (a debug build
/// needs ≈ 11 s to sweep L48; `ablations` prints it).
#[test]
fn the_adaptive_plan_meets_the_cutoff_oracle() {
    let gib = |b: u64| format!("{:.2}", ssdtrain_bench::gib(b));
    let gb = |b: u64| format!("{:.2}", ssdtrain_bench::gb(b));
    let sweeps = cutoff_sweeps(12);
    assert_eq!(
        sweeps.len(),
        13,
        "the twin, nine Fig. 10 cells, three backends"
    );
    for s in &sweeps {
        let (plan, best, label) = (&s.plan, s.oracle(), s.label.as_str());
        assert!(
            plan.step_secs <= s.fastest_secs() * 1.01,
            "{label}: the plan's step {} s is not within 1 % of the fastest cutoff's {} s",
            plan.step_secs,
            s.fastest_secs()
        );
        let peaks = [gib(plan.act_peak_bytes), gib(best.act_peak_bytes)];
        let bytes = [gb(plan.ssd_host_writes), gb(best.ssd_host_writes)];
        assert!(
            plan.act_peak_bytes <= best.act_peak_bytes,
            "{label}: peak {peaks:?} GiB above the oracle's"
        );
        assert!(
            plan.ssd_host_writes as f64 <= 1.05 * best.ssd_host_writes as f64,
            "{label}: writes {bytes:?} GB beyond 5 % over the oracle's"
        );
    }
}

/// `bench_capacity`: offloading optimizer state to the array buys model
/// size the bounded host pool cannot, the in-backward optimizer update
/// exposes strictly less time than the inline one, and both are their
/// state loads: the inline update all of them over the one read bus, the
/// in-backward one only the tail still in flight when backward ends.
#[test]
fn capacity_array_backends_outgrow_the_host_pool_and_overlap_hides_the_update() {
    let rows = capacity_rows();
    let max_hidden = |label: &str, overlap: bool| {
        let found = rows
            .iter()
            .find(|r| r.label == label && r.overlap == overlap);
        found.unwrap_or_else(|| panic!("no {label} row")).max_hidden
    };
    for r in &rows {
        let (label, m) = (r.label, &r.metrics);
        assert!(
            !m.oom,
            "{label}: {} B peak, parameters included, exceeds the device",
            m.total_peak_bytes
        );
        // 32768 is the search's ceiling: a row there found no limit.
        assert!(r.max_hidden < 32768, "{label}: the search hit its ceiling");
    }
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
    // The same rule as the tiering gate, over both steady steps: no two
    // backends equal in every column.
    let named = |t: &CapacityTiming| {
        let mut cols = columns("inline ", &t.metrics[0]);
        cols.extend(columns("overlapped ", &t.metrics[1]));
        (t.backend, cols)
    };
    assert_no_two_rows_equal(timings.iter().map(named).collect());
    // The inline update is its state loads — every gradient and momentum
    // byte once — over the one PCIe read bus, whichever tier holds them:
    // the state volume at the read rate, on every backend. Every
    // backend's read link is priced at the GPU's PCIe rate (the array
    // reads faster than PCIe carries).
    let system = SystemConfig::dac_testbed();
    let read_bps = system.pcie_bps;
    assert_eq!(
        (system.offload_read_bps(), system.host_offload_bps()),
        (read_bps, read_bps),
        "every tier reads at the PCIe rate"
    );
    for t in &timings {
        let name = t.backend;
        let state = [OffloadClass::Gradient, OffloadClass::OptimizerState];
        let classes = state.iter().filter_map(|c| t.metrics[0].offload.class(*c));
        let loaded: u64 = classes.map(|c| c.reloaded_bytes).sum();
        let serial = loaded as f64 / read_bps;
        assert!(
            (t.opt_secs_inline - serial).abs() <= 1e-9 * serial,
            "{name}: the inline update {} s is not its {loaded} state bytes at the read rate ({serial} s)",
            t.opt_secs_inline,
        );
        // The in-backward update loads each parameter's momentum as
        // autograd finalises its gradient; what it exposes is the tail
        // of those reads still in flight when backward ends (the token
        // embedding's, whose gradient is final last), which
        // `ReduceGrads` waits out.
        let tail = t.overlap_tail;
        assert!(tail > 0.0, "{name}: the last reads outlast backward");
        assert!(
            (t.opt_exposed_overlap - tail).abs() <= 1e-9 * tail,
            "{name}: in-backward exposure {} s is not the reads' tail after backward ({tail} s)",
            t.opt_exposed_overlap,
        );
    }
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
