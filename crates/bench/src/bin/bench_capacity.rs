//! Capacity bench: the largest BERT (L4, TP=2, batch 16) that trains
//! without OOM on one 40 GB A100, per offload backend, with gradients
//! and optimizer state offloaded alongside activations — and with the
//! optimizer update either inline or overlapped into the next step's
//! forward. The host pool is deliberately bounded so the dram-only
//! backend hits Figure 2's wall while the array keeps absorbing state.
//!
//! Prints a table and the overlap-timing lines. The rows come from
//! `ssdtrain_bench::{capacity_rows, capacity_timings}`, which
//! `tests/paper_claims.rs` gates.

use ssdtrain_bench::{
    capacity_rows, capacity_timings, gb, print_table, CAPACITY_BATCH, CAPACITY_LAYERS,
    CAPACITY_TIMING_HIDDEN,
};

fn main() {
    let rows = capacity_rows();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let m = &row.metrics;
            vec![
                row.label.to_owned(),
                if row.overlap { "yes" } else { "no" }.to_owned(),
                format!("{}", row.max_hidden),
                format!("{:.3}", m.step_secs),
                format!("{:.4}", m.opt_secs),
                format!("{:.4}", m.opt_exposed_secs),
                format!("{:.2}", gb(m.offload.offloaded_bytes)),
                format!("{:.2}", gb(m.total_peak_bytes)),
                format!("{:.4}", row.planned_state_io_secs),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Max trainable BERT-L{CAPACITY_LAYERS} (TP=2, B={CAPACITY_BATCH}) on 40 GB, by backend"
        ),
        &[
            "backend",
            "overlap",
            "max hidden",
            "step s",
            "opt s",
            "opt exposed s",
            "offloaded GB",
            "peak GB",
            "planned state io s",
        ],
        &table,
    );

    println!("\noverlap timing at H{CAPACITY_TIMING_HIDDEN} (steady step):");
    for t in capacity_timings() {
        println!(
            "  {:<9}: inline opt {:.6}s vs overlapped exposure {:.6}s (step {:.3}s -> {:.3}s)",
            t.backend, t.opt_secs_inline, t.opt_exposed_overlap, t.step_secs[0], t.step_secs[1],
        );
    }
    println!(
        "\nthe array-backed backends keep absorbing gradients and momentum after the\n\
         bounded host pool is full, so their largest trainable model exceeds the\n\
         dram-only offloader's; overlapping the update hides its loads behind the\n\
         next forward instead of paying them at the step boundary.\n\
         \n\
         the optimizer columns of the timing lines agree across backends on purpose:\n\
         an update is bound by loading its state (gradients and momentum, once each),\n\
         and every backend reads over the GPU's one PCIe link — the array reads\n\
         faster than PCIe carries — so at a size all three hold the read side cannot\n\
         tell them apart. the write side can (the array writes a little slower than\n\
         PCIe carries): that is the ssd line's longer step."
    );
}
