//! I/O-path ablation on the paper testbed: per-tensor stores vs
//! coalesced segments, on-demand backward loads vs the group
//! look-ahead (BERT H2048 L8, batch 8, TP=2, symbolic, tiered
//! backend — a many-small-tensors regime where per-job and per-op
//! overheads actually register). Every arm pays the same per-store-job
//! submission overhead
//! and per-write-op media overhead, so the table isolates what
//! batching buys: fewer jobs on the queue clock, fewer ops on the wear
//! meter, and backward's reloads started when backward is announced,
//! as far ahead as the memory it hands back allows.
//!
//! The arms run with `cancel_forwarded_stores` off, so each queues the
//! same 3.45 GB. Stores run on into backward, and with cancellation on
//! backward would cancel the unstarted tail of the per-tensor queue —
//! only a sole-member job can be cancelled, so segments mostly are not —
//! and the arms would be told apart by how much they offload (0.131 s
//! at 1.12 GB per tensor against 0.121 s at 2.23 GB and 0.155 s at
//! 3.45 GB coalesced): a difference in what is offloaded, not in how.
//!
//! Prints a table. The rows come from `ssdtrain_bench::io_rows`, which
//! `tests/paper_claims.rs` gates.

use ssdtrain_bench::{gb, io_rows, print_table};

fn main() {
    let rows = io_rows();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let o = &row.offload;
            vec![
                row.arm.name.to_owned(),
                if row.arm.segment_bytes > 0 {
                    format!("{}", row.arm.segment_bytes >> 20)
                } else {
                    "-".into()
                },
                format!("{:.3}", row.step_secs),
                format!("{:.3}", row.waf),
                format!("{:.4}", o.stall_secs),
                format!("{:.3}", o.store_stall_secs),
                format!("{:.2}", gb(o.arena_high_water_bytes)),
                format!("{}", o.store_jobs),
                format!("{}", o.coalesce_segments),
                format!("{:.2}", gb(o.offloaded_bytes)),
            ]
        })
        .collect();
    print_table(
        "I/O path ablation (BERT H2048 L8, B=8, TP=2, tiered)",
        &[
            "arm",
            "seg MiB",
            "step s",
            "waf",
            "load stall s",
            "store stall s",
            "arena hw GB",
            "store jobs",
            "segments",
            "offloaded GB",
        ],
        &table,
    );
    println!(
        "\ncoalescing collapses the {} per-tensor store jobs into {} sequential\n\
         segments: the per-job submission overhead leaves the step clock\n\
         and the per-op media padding leaves the wear meter (lower effective WAF).\n\
         the group look-ahead starts backward's reloads when backward is announced\n\
         and runs as far ahead as the memory backward hands back allows: no load\n\
         stall is left, where per-tensor depth-2 prefetch still exposes some. these\n\
         rows are write-bound with cancellation off, so the time shows up as store\n\
         stall at backward's exit instead and the step is as long as before.",
        rows[0].offload.store_jobs,
        rows[rows.len() - 1].offload.store_jobs,
    );
}
