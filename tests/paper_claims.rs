//! The paper's claims as a gate: each exhibit's rows are computed by the
//! same function its binary prints from (`ssdtrain_bench::*_rows`), and
//! the claims EXPERIMENTS.md reports are asserted here, so a change
//! that breaks the reproduction fails tier-1 instead of going stale in
//! prose. One exhibit so far (ROADMAP direction 1(i)).

use ssdtrain::TraceSink;
use ssdtrain_bench::fig10_rows;

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
