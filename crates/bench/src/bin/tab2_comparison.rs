//! Table 2 — what the paper's two measurable design axes buy: the
//! direct GPU↔SSD data path (GDS) vs a bounce buffer through host
//! memory, and asynchronous (prefetched, forwarded) transfers vs
//! synchronous per-tensor I/O. The third Table 2 axis, interoperability,
//! is architectural (see the printout).
//!
//! BERT H8192 L4 B16 on the Table 3 testbed.

use ssdtrain::{PlacementStrategy, TensorCacheConfig};
use ssdtrain_bench::{
    bert_h8192_l4_step, export_trace, gib, paper_session, print_table, sink_for,
    trace_path_from_args,
};
use ssdtrain_models::Arch;
use ssdtrain_simhw::SystemConfig;

fn main() {
    let trace_path = trace_path_from_args();
    let sink = sink_for(&trace_path);
    let keep = paper_session(Arch::Bert, 8192, 4, 16, PlacementStrategy::Keep)
        .run_step()
        .expect("measured step");

    let direct = SystemConfig::dac_testbed();
    let via_host = SystemConfig::dac_testbed().with_via_host_path(0.5);
    let rows_spec: [(&str, SystemConfig, bool); 4] = [
        ("TBA: direct path + async", direct.clone(), true),
        ("direct path + sync I/O", direct, false),
        ("via-host path + async", via_host.clone(), true),
        ("via-host path + sync I/O", via_host, false),
    ];

    let mut rows = Vec::new();
    for (name, sys, asynchronous) in rows_spec {
        let cache = if asynchronous {
            TensorCacheConfig::default()
        } else {
            // Synchronous I/O: no prefetch, no forwarding, no adaptive
            // plan, and so no profiling step to derive one.
            TensorCacheConfig {
                prefetch_depth: 0,
                forwarding: false,
                cancel_forwarded_stores: false,
                adaptive: false,
                ..TensorCacheConfig::default()
            }
        };
        let m = bert_h8192_l4_step(sys, cache, sink.clone(), asynchronous);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", m.step_secs),
            format!("{:+.1}%", (m.step_secs / keep.step_secs - 1.0) * 100.0),
            format!("{:.3}", m.offload.stall_secs),
            format!("{:.2}", gib(m.act_peak_bytes)),
        ]);
    }
    rows.push(vec![
        "keep in GPU memory (reference)".into(),
        format!("{:.3}", keep.step_secs),
        "+0.0%".into(),
        "0.000".into(),
        format!("{:.2}", gib(keep.act_peak_bytes)),
    ]);
    print_table(
        "Table 2 — data-path and async-transfer axes (BERT H8192 L4 B16)",
        &[
            "system style",
            "step s",
            "overhead",
            "stall s",
            "act peak GiB",
        ],
        &rows,
    );
    println!(
        "\npaper's Table 2: earlier SSD-offloading systems either bounce through the CPU\n\
         (halving usable bandwidth and perturbing host workloads) or block computation on\n\
         per-tensor I/O; TBA is the only row with both the direct path and async transfer\n\
         — and the only one matching the keep baseline's step time.\n\
         The third axis, interoperability, is architectural: TBA works below the\n\
         framework through process-local hooks (this repo's cache installs onto any\n\
         graph via two hook registrations), instead of a custom runtime."
    );
    if let Some(path) = trace_path {
        export_trace(&sink, &path);
    }
}
