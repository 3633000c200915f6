//! # ssdtrain-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation. Each binary prints the rows/series of one exhibit:
//!
//! | binary | exhibit |
//! |---|---|
//! | `fig1_trends` | Figure 1 — throughput / model-size / memory growth |
//! | `fig2_instances` | Figure 2 — host memory vs SSD capacity |
//! | `fig7_footprint` | Figure 7 — memory footprint timeline ± offloading |
//! | `fig9_lifespan` | Figure 9 — SSD lifespan, PCIe bandwidth, max activations |
//! | `fig10_overhead` | Figure 10 — step time and activation peak ± TBA |
//! | `fig11_rok` | Figure 11 — the recompute-offload-keep curve |
//! | `tab1_ssds` | Table 1 — endurance-class SSDs |
//! | `tab4_offload` | Table 4 — measured vs modelled offload volume |
//! | `ablations` | design-choice ablations (dedup, forwarding, prefetch, adaptive) |
//!
//! Run one with `cargo run -p ssdtrain-bench --release --bin fig10_overhead`.
//!
//! An exhibit whose claims are gated computes its rows here
//! ([`fig10_rows`]) so the binary that prints them and the test that
//! asserts them (`tests/paper_claims.rs`) read the same numbers.

use ssdtrain::{chrome_trace_json, text_summary, PlacementStrategy, TraceSink};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_train::{SessionBuilder, SessionConfig, StepMetrics, TrainSession};
use std::path::{Path, PathBuf};

/// Formats bytes as GiB with two decimals.
pub fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Formats bytes as GB (decimal) with two decimals.
pub fn gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

/// Slugifies a table title into a file stem.
fn slug(title: &str) -> String {
    let mut out = String::new();
    for c in title.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if (c == ' ' || c == '-' || c == '_') && !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').chars().take(64).collect()
}

/// Writes a table as CSV under `results/` (best effort — printing always
/// succeeds even if the directory is read-only).
pub fn write_csv(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut csv = String::new();
    csv.push_str(&headers.join(","));
    csv.push('\n');
    for row in rows {
        let escaped: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        csv.push_str(&escaped.join(","));
        csv.push('\n');
    }
    let _ = std::fs::write(dir.join(format!("{}.csv", slug(title))), csv);
}

/// Prints a fixed-width table and mirrors it to `results/<slug>.csv`.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    write_csv(title, headers, rows);
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The paper-testbed builder every bench binary starts from: a
/// paper-scale (symbolic) model with TP=2 on the Table 3 machine, seed
/// 42. Layer backend, cache and strategy choices on top and finish with
/// `.build()` — `bench_tiering`, `bench_capacity` and `bench_io` all
/// derive their sessions from this one helper so the testbed cannot
/// drift between exhibits.
pub fn paper_testbed(arch: Arch, hidden: usize, layers: usize, batch: usize) -> SessionBuilder {
    SessionConfig::builder()
        .model(ModelConfig::paper_scale(arch, hidden, layers).with_tp(2))
        .batch_size(batch)
        .symbolic(true)
        .seed(42)
}

/// Builds a paper-scale (symbolic) session on the Table 3 testbed.
pub fn paper_session(
    arch: Arch,
    hidden: usize,
    layers: usize,
    batch: usize,
    strategy: PlacementStrategy,
) -> TrainSession {
    paper_session_traced(arch, hidden, layers, batch, strategy, TraceSink::disabled())
}

/// [`paper_session`] with the session's events routed into `sink`.
pub fn paper_session_traced(
    arch: Arch,
    hidden: usize,
    layers: usize,
    batch: usize,
    strategy: PlacementStrategy,
    sink: TraceSink,
) -> TrainSession {
    let cfg = paper_testbed(arch, hidden, layers, batch)
        .strategy(strategy)
        .trace(sink)
        .build()
        .expect("valid config");
    TrainSession::new(cfg).expect("session construction")
}

/// Parses a `--trace <path>` flag from the process arguments (used by
/// every bench binary; other arguments are left alone).
pub fn trace_path_from_args() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            return args.next().map(PathBuf::from);
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(PathBuf::from(p));
        }
    }
    None
}

/// An enabled sink when a trace path was requested, else a disabled one.
pub fn sink_for(path: &Option<PathBuf>) -> TraceSink {
    match path {
        Some(_) => TraceSink::enabled(),
        None => TraceSink::disabled(),
    }
}

/// Writes `sink` as Chrome-trace JSON to `path` and prints the per-step
/// text timeline to stdout.
pub fn export_trace(sink: &TraceSink, path: &Path) {
    let events = sink.events();
    std::fs::write(path, chrome_trace_json(&events)).expect("write trace file");
    println!("\n{}", text_summary(&events));
    println!("chrome trace written to {}", path.display());
}

/// Runs one measured step (with a profiling step first for the offload
/// strategy, as the real system does). Bench sessions run on healthy
/// simulated devices, so a step error is a harness bug.
pub fn measured_step(session: &mut TrainSession, strategy: PlacementStrategy) -> StepMetrics {
    if strategy.uses_cache() {
        let _ = session.profile_step().expect("profile step");
    }
    session.run_step().expect("measured step")
}

/// Figure 10's model grid: the paper's three (hidden, layers) points.
const FIG10_SHAPES: [(usize, usize); 3] = [(8192, 4), (12288, 3), (16384, 2)];

/// One cell of Figure 10: a model measured with every activation kept
/// and with TBA offloading, batch 16, TP=2.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Model architecture.
    pub arch: Arch,
    /// Hidden dimension.
    pub hidden: usize,
    /// Layer count.
    pub layers: usize,
    /// The keep-everything step.
    pub keep: StepMetrics,
    /// The TBA-offloading step.
    pub tba: StepMetrics,
}

impl Fig10Row {
    /// The row's label, e.g. `bert H8192 L4`.
    pub fn label(&self) -> String {
        format!("{} H{} L{}", self.arch, self.hidden, self.layers)
    }

    /// Step-time overhead of offloading over keeping, percent.
    pub fn overhead_pct(&self) -> f64 {
        (self.tba.step_secs / self.keep.step_secs - 1.0) * 100.0
    }

    /// Activation-peak reduction offloading buys, percent.
    pub fn peak_cut_pct(&self) -> f64 {
        (1.0 - self.tba.act_peak_bytes as f64 / self.keep.act_peak_bytes as f64) * 100.0
    }
}

/// Measures Figure 10's nine cells (BERT/GPT/T5 × three shapes); the
/// offloading sessions emit into `sink`. The `fig10_overhead` binary
/// prints these rows and `tests/paper_claims.rs` asserts the paper's
/// claims on them, so the table and the gate cannot drift apart.
pub fn fig10_rows(sink: &TraceSink) -> Vec<Fig10Row> {
    let batch = 16;
    let mut rows = Vec::new();
    for arch in [Arch::Bert, Arch::Gpt, Arch::T5] {
        for (hidden, layers) in FIG10_SHAPES {
            let mut keep = paper_session(arch, hidden, layers, batch, PlacementStrategy::Keep);
            let offload = PlacementStrategy::Offload;
            let mut tba = paper_session_traced(arch, hidden, layers, batch, offload, sink.clone());
            rows.push(Fig10Row {
                arch,
                hidden,
                layers,
                keep: measured_step(&mut keep, PlacementStrategy::Keep),
                tba: measured_step(&mut tba, offload),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gib_and_gb() {
        assert_eq!(gib(1 << 30), 1.0);
        assert_eq!(gb(1_000_000_000), 1.0);
    }

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(
            super::slug("Figure 7 — BERT H8192 (GiB)"),
            "figure_7_bert_h8192_gib"
        );
    }

    #[test]
    fn paper_session_builds_and_steps() {
        let mut s = paper_session(Arch::Bert, 1024, 2, 4, PlacementStrategy::Keep);
        let m = measured_step(&mut s, PlacementStrategy::Keep);
        assert!(m.step_secs > 0.0);
    }
}
