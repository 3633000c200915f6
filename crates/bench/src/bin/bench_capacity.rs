//! Capacity bench: the largest BERT (L4, TP=2, batch 16) that trains
//! without OOM on one 40 GB A100, per offload backend, with gradients
//! and optimizer state offloaded alongside activations — and with the
//! optimizer update either inline after backward or overlapped into
//! backward itself. The host pool is deliberately bounded so the
//! dram-only backend hits Figure 2's wall while the array keeps
//! absorbing state.
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
        "\nthe array-backed backends keep absorbing activations and optimizer state\n\
         after the bounded host pool is full, so their largest trainable model exceeds\n\
         the dram-only offloader's; overlapping the update into backward hides its loads\n\
         behind backward's compute instead of paying them at the step boundary.\n\
         \n\
         an inline update is bound by loading its state (gradients and momentum, once\n\
         each) over the GPU's one PCIe read bus, whichever tier holds it. every tier\n\
         reads at the PCIe rate — the array reads faster than PCIe carries — so the\n\
         inline update takes the same time on every backend: the state volume at that\n\
         rate. the overlapped update never stores a gradient and loads each\n\
         parameter's momentum the moment autograd finalises its gradient, queued\n\
         behind the activation reloads backward is about to consume, so it exposes\n\
         only the read still in flight when backward ends: the token embedding's,\n\
         whose gradient is final last. the backends still differ in where the bytes\n\
         land and on the write side (the array writes a little slower than PCIe\n\
         carries)."
    );
}
