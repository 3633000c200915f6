//! Table 2 — what the paper's two measurable design axes buy: the
//! direct GPU↔SSD data path (GDS) vs a bounce buffer through host
//! memory, and asynchronous (prefetched, forwarded) transfers vs
//! synchronous per-tensor I/O. The third Table 2 axis, interoperability,
//! is architectural (see the printout).
//!
//! BERT H8192 L4 B16 on the Table 3 testbed.

use ssdtrain::{PlacementStrategy, TensorCacheConfig, TraceSink};
use ssdtrain_bench::{export_trace, gib, print_table, sink_for, trace_path_from_args};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_simhw::SystemConfig;
use ssdtrain_train::{SessionConfig, StepMetrics, TrainSession};

fn run(system: SystemConfig, asynchronous: bool, sink: TraceSink) -> StepMetrics {
    let cache = if asynchronous {
        TensorCacheConfig::default()
    } else {
        TensorCacheConfig {
            prefetch_depth: 0,
            forwarding: false,
            cancel_forwarded_stores: false,
            adaptive: false,
            ..TensorCacheConfig::default()
        }
    };
    let cfg = SessionConfig::builder()
        .system(system)
        .model(ModelConfig::paper_scale(Arch::Bert, 8192, 4).with_tp(2))
        .batch_size(16)
        .cache(cache)
        .symbolic(true)
        .seed(42)
        .trace(sink)
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    if asynchronous {
        let _ = s.profile_step().expect("profile step");
    }
    s.run_step().expect("step")
}

fn main() {
    let trace_path = trace_path_from_args();
    let sink = sink_for(&trace_path);
    let keep = {
        let cfg = SessionConfig::builder()
            .model(ModelConfig::paper_scale(Arch::Bert, 8192, 4).with_tp(2))
            .batch_size(16)
            .strategy(PlacementStrategy::Keep)
            .symbolic(true)
            .seed(42)
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        s.run_step().expect("step")
    };

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
        let m = run(sys, asynchronous, sink.clone());
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
