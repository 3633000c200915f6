//! Ablations of the design choices DESIGN.md calls out: tensor
//! deduplication, data forwarding, prefetching and the just-in-time
//! reload schedule — each toggled off individually on the Figure 10
//! BERT H8192 L4 B16 workload — and the adaptive plan under scarce
//! bandwidth, where it matters. The last table holds the adaptive plan
//! against every cutoff (`ssdtrain_bench::cutoff_sweeps`) on
//! `sym_deep_tiered`, Figure 10's nine cells and `bench_tiering`'s three
//! backends.

use ssdtrain::TensorCacheConfig;
use ssdtrain_bench::{
    bert_h8192_l4_step, cutoff_sweeps, export_trace, gb, gib, print_table, sink_for,
    trace_path_from_args, CutoffPoint,
};
use ssdtrain_simhw::SystemConfig;

fn main() {
    let trace_path = trace_path_from_args();
    let sink = sink_for(&trace_path);
    let base = TensorCacheConfig::default();
    let variants: Vec<(&str, TensorCacheConfig, bool)> = vec![
        ("full system", base.clone(), true),
        (
            "no dedup",
            TensorCacheConfig {
                dedup: false,
                ..base.clone()
            },
            true,
        ),
        (
            "no forwarding",
            TensorCacheConfig {
                forwarding: false,
                cancel_forwarded_stores: false,
                ..base.clone()
            },
            true,
        ),
        (
            "no store cancel",
            TensorCacheConfig {
                cancel_forwarded_stores: false,
                ..base.clone()
            },
            true,
        ),
        (
            "no prefetch (sync loads)",
            TensorCacheConfig {
                prefetch_depth: 0,
                ..base.clone()
            },
            true,
        ),
        (
            // A step no profiling step timed reloads on the depth walk;
            // depth 1 is the paper's scheme, the next module only.
            "depth 1, unprofiled (paper)",
            TensorCacheConfig {
                prefetch_depth: 1,
                ..base.clone()
            },
            false,
        ),
    ];

    let mut rows = Vec::new();
    for (name, cfg, profile) in variants {
        let m = bert_h8192_l4_step(SystemConfig::dac_testbed(), cfg, sink.clone(), profile);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", m.step_secs),
            format!("{:.4}", m.offload.stall_secs),
            format!("{:.2}", gib(m.act_peak_bytes)),
            format!("{:.2}", gb(m.offload.offloaded_bytes)),
            format!("{:.2}", gb(m.offload.reloaded_bytes)),
            format!("{:.2}", gb(m.offload.dedup_avoided_bytes)),
            format!("{:.2}", gb(m.offload.cancelled_bytes)),
            m.offload.forwarded.to_string(),
            m.offload.sync_loads.to_string(),
        ]);
    }
    print_table(
        "Ablations — BERT H8192 L4 B16, TBA offloading",
        &[
            "variant",
            "step s",
            "stall s",
            "peak GiB",
            "stored GB",
            "reloaded GB",
            "dedup GB",
            "cancel GB",
            "fwd",
            "sync",
        ],
        &rows,
    );

    // The adaptive planner earns its keep when bandwidth is scarce: one
    // Optane drive per GPU instead of the testbed's four.
    let slow = {
        let mut sys = SystemConfig::dac_testbed();
        sys.ssd_array.n = 1;
        sys
    };
    let mut rows = Vec::new();
    for (name, cfg) in [
        ("adaptive plan on", base.clone()),
        (
            "adaptive plan off",
            TensorCacheConfig {
                adaptive: false,
                ..base.clone()
            },
        ),
    ] {
        let m = bert_h8192_l4_step(slow.clone(), cfg, sink.clone(), true);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", m.step_secs),
            format!("{:.4}", m.offload.stall_secs),
            format!("{:.2}", gib(m.act_peak_bytes)),
            format!("{:.2}", gb(m.offload.offloaded_bytes)),
            m.offload.kept.to_string(),
        ]);
    }
    print_table(
        "Adaptive offloading under scarce bandwidth (1x P5800X, 6.1 GB/s)",
        &[
            "variant",
            "step s",
            "stall s",
            "peak GiB",
            "stored GB",
            "kept",
        ],
        &rows,
    );
    println!(
        "\nexpected: dedup avoids re-storing duplicate saves (dedup GB > 0); disabling\n\
         prefetch exposes every reload on the critical path (stall > 0); without\n\
         forwarding, the stores still in flight when backward reaches them are waited\n\
         for and read back (stall > 0, fwd 0); the unprofiled depth walk reloads ahead\n\
         of use and holds more memory than the just-in-time schedule; under scarce\n\
         bandwidth the adaptive plan keeps tail modules and writes fewer bytes than the\n\
         keep-last-only policy."
    );

    // The cutoff oracle: each gated configuration run at every cutoff,
    // against the plan its profiling step derived.
    let cut = |p: &CutoffPoint| p.last_offloaded.map_or("none".into(), |m| m.to_string());
    let rows: Vec<Vec<String>> = cutoff_sweeps(48)
        .iter()
        .map(|s| {
            let (plan, best) = (&s.plan, s.oracle());
            vec![
                s.label.clone(),
                format!("{}/{}", s.plan_kept, s.modules),
                cut(plan),
                format!("{:.4}", plan.step_secs),
                format!("{:.2}", gib(plan.act_peak_bytes)),
                format!("{:.2}", gb(plan.ssd_host_writes)),
                format!("{:.4}", plan.exposed_io_secs),
                cut(&best),
                format!("{:.4}", best.step_secs),
                format!("{:.2}", gib(best.act_peak_bytes)),
                format!("{:.2}", gb(best.ssd_host_writes)),
                format!("{:.4}", s.fastest_secs()),
            ]
        })
        .collect();
    print_table(
        "Adaptive plan vs the cutoff oracle (best peak, then fewest bytes, within 1 % of the fastest step)",
        &[
            "config",
            "kept",
            "plan cut",
            "step s",
            "peak GiB",
            "write GB",
            "exposed s",
            "oracle cut",
            "step s",
            "peak GiB",
            "write GB",
            "fastest s",
        ],
        &rows,
    );
    if let Some(path) = trace_path {
        export_trace(&sink, &path);
    }
}
