//! Figure 7 — the memory footprint of one GPU in a BERT training step
//! with and without offloading: the offloaded curve's peak is lower, and
//! the level at the start of backward drops sharply. The paper's peak
//! is delayed into backward propagation by its prefetches; reloads
//! timed just in time from the profile keep backward below the level
//! forward ends at, so here the peak stays in forward.

use ssdtrain::PlacementStrategy;
use ssdtrain_bench::{gib, measured_step, paper_session, print_table};
use ssdtrain_models::Arch;

fn main() {
    // The paper's Figure 7 BERT config on the Table 3 testbed.
    let (h, l, b) = (8192, 4, 16);

    let mut keep = paper_session(Arch::Bert, h, l, b, PlacementStrategy::Keep);
    let mk = measured_step(&mut keep, PlacementStrategy::Keep);
    let mut off = paper_session(Arch::Bert, h, l, b, PlacementStrategy::Offload);
    let mo = measured_step(&mut off, PlacementStrategy::Offload);

    // Sample both timelines on a common grid.
    let end = mk.step_secs.max(mo.step_secs);
    let samples = 24;
    let level = |m: &ssdtrain_train::StepMetrics, t: f64| -> u64 {
        m.timeline
            .iter()
            .take_while(|p| p.time.as_secs() <= t)
            .last()
            .map(|p| p.activations)
            .unwrap_or(0)
    };
    let rows: Vec<Vec<String>> = (0..=samples)
        .map(|i| {
            let t = end * i as f64 / samples as f64;
            vec![
                format!("{:.3}", t),
                format!("{:.2}", gib(level(&mk, t))),
                format!("{:.2}", gib(level(&mo, t))),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 7 — BERT H{h} L{l} B{b} activation footprint (GiB)"),
        &["t (s)", "keep", "offload"],
        &rows,
    );

    let at_bwd_reduction = 1.0 - mo.act_at_bwd_start as f64 / mk.act_at_bwd_start.max(1) as f64;
    let peak_reduction = 1.0 - mo.act_peak_bytes as f64 / mk.act_peak_bytes.max(1) as f64;
    let peak_at = mo
        .timeline
        .iter()
        .max_by(|a, b| a.activations.cmp(&b.activations))
        .map(|p| p.time.as_secs())
        .unwrap_or(0.0);
    let when = if peak_at > mo.fwd_secs {
        "delayed into backward"
    } else {
        "in forward: no reload lifts backward above it"
    };
    println!(
        "\nforward ends at {:.3}s; offload peak occurs at t={peak_at:.3}s ({when})",
        mo.fwd_secs,
    );
    println!(
        "reduction at start of backward: {:.0}% (paper Fig. 7: 45%)",
        at_bwd_reduction * 100.0
    );
    println!(
        "end-to-end activation peak reduction: {:.0}% (paper Fig. 7: 25% total footprint; \
         Fig. 10: 28–40% activations)",
        peak_reduction * 100.0
    );
    println!(
        "allocator events: keep {} vs offload {} (offloading adds release/reload events)",
        mk.timeline.len(),
        mo.timeline.len()
    );
}
