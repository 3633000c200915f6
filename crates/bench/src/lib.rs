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
//! ([`fig10_rows`], [`tiering_rows`], [`capacity_rows`] /
//! [`capacity_timings`], [`io_rows`], [`cutoff_sweeps`] — the last
//! table `ablations` prints) so the binary that prints them and
//! the test that asserts them (`tests/paper_claims.rs`) read the same
//! numbers.

use ssdtrain::{
    chrome_trace_json, text_summary, AdaptivePlan, OffloadClass, OffloadStats, PlacementStrategy,
    TensorCacheConfig, TraceEvent, TraceSink,
};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_simhw::{SimTime, SystemConfig};
use ssdtrain_train::{OffloadBackend, SessionBuilder, SessionConfig, StepMetrics, TrainSession};
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
/// `.build()` — `bench_tiering`, `bench_capacity`, `bench_io`,
/// `tab2_comparison` and `ablations` all derive their sessions from this
/// one helper so the testbed cannot drift between exhibits.
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

/// One step of Figure 10's BERT H8192 L4 B16 cell on `system`, its
/// cache tuned by `cache` and its events routed into `sink`: the step
/// after a profiling step when `profile` is set, else the session's
/// first. `tab2_comparison` and `ablations` toggle their design axes on
/// this one cell.
pub fn bert_h8192_l4_step(
    system: SystemConfig,
    cache: TensorCacheConfig,
    sink: TraceSink,
    profile: bool,
) -> StepMetrics {
    let cfg = paper_testbed(Arch::Bert, 8192, 4, 16)
        .system(system)
        .cache(cache)
        .trace(sink)
        .build()
        .expect("valid config");
    let mut session = TrainSession::new(cfg).expect("session construction");
    if profile {
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

/// `bench_tiering`: the array's write bandwidth relative to the Table 3
/// testbed. On the stock testbed every backend hides its I/O and the
/// rows read alike; the backends differ where a link binds.
const TIERING_ARRAY_WRITE_SCALE: f64 = 0.25;

/// A steady month of training at the measured per-step traffic — long
/// enough for the endurance split between backends to show.
const TIERING_PROJECTION_SECS: f64 = 30.0 * 24.0 * 3600.0;

/// The 4 GiB pinned front tier of the tiered rows: it holds part of one
/// step's ~12 GB of activations; the rest spills to the array.
const TIERED_4G: OffloadBackend = OffloadBackend::Tiered {
    dram_bytes: 4 << 30,
};

/// One backend of `bench_tiering`.
#[derive(Debug, Clone)]
pub struct TieringRow {
    /// Backend label, e.g. `tiered-4g`.
    pub label: &'static str,
    /// The measured step.
    pub metrics: StepMetrics,
    /// Share of the SSD array's endurance left after 30 days at this
    /// backend's per-step SSD traffic.
    pub remaining_frac: f64,
    /// Projected array lifespan, `None` when nothing reaches the flash.
    pub lifespan_years: Option<f64>,
}

/// Bytes a step wrote to the `ssd` tier (`on_ssd`) or to every tier in
/// front of it.
fn tier_bytes_written(metrics: &StepMetrics, on_ssd: bool) -> u64 {
    let tiers = metrics.offload.tiers.iter();
    let picked = tiers.filter(|t| (t.name == "ssd") == on_ssd);
    picked.map(|t| t.bytes_written).sum()
}

impl TieringRow {
    /// Bytes the step wrote to the `ssd` tier — the only ones that wear
    /// the flash; the DRAM tier absorbs the rest.
    pub fn ssd_bytes(&self) -> u64 {
        tier_bytes_written(&self.metrics, true)
    }

    /// Bytes the step wrote to every tier in front of the array.
    pub fn front_bytes(&self) -> u64 {
        tier_bytes_written(&self.metrics, false)
    }
}

/// The session of one `bench_tiering` backend row.
fn tiering_config(backend: OffloadBackend) -> SessionConfig {
    let mut system = SystemConfig::dac_testbed();
    system.ssd_array.member.write_bps *= TIERING_ARRAY_WRITE_SCALE;
    paper_testbed(Arch::Bert, 8192, 4, 16)
        .system(system)
        .strategy(PlacementStrategy::Offload)
        .backend(backend)
        .build()
        .expect("valid config")
}

fn tiering_row(label: &'static str, backend: OffloadBackend) -> TieringRow {
    let cfg = tiering_config(backend);
    let mut session = TrainSession::new(cfg).expect("session construction");
    let _ = session.profile_step().expect("profile step");
    let metrics = session.run_step().expect("measured step");

    // Project the SSD array's wear under a month of steady training at
    // this backend's per-step SSD traffic.
    let ssd_bytes_per_step = tier_bytes_written(&metrics, true);
    let mut meter = SystemConfig::dac_testbed().ssd_array.wear_meter(1.0);
    let steps = (TIERING_PROJECTION_SECS / metrics.step_secs) as u64;
    meter.record_write(ssd_bytes_per_step.saturating_mul(steps));
    let remaining_frac = meter.remaining_bytes() / meter.endurance_bytes;
    let lifespan_years = (ssd_bytes_per_step > 0)
        .then(|| meter.projected_lifespan_years(ssd_bytes_per_step, metrics.step_secs));

    TieringRow {
        label,
        metrics,
        remaining_frac,
        lifespan_years,
    }
}

/// Measures `bench_tiering` (BERT H8192 L4, batch 16, TP=2, array write
/// ×0.25): the keep-everything step — no link is touched; the step time
/// offloading must not exceed, the peak it cuts — and one row per
/// offload backend.
pub fn tiering_rows() -> (StepMetrics, Vec<TieringRow>) {
    let keep_all = PlacementStrategy::Keep;
    let keep = measured_step(
        &mut paper_session(Arch::Bert, 8192, 4, 16, keep_all),
        keep_all,
    );
    let rows = BACKENDS
        .into_iter()
        .map(|(label, backend)| tiering_row(label, backend))
        .collect();
    (keep, rows)
}

/// One run of a configuration under one plan — what the cutoff oracle
/// compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutoffPoint {
    /// The last module offloaded, in forward order (`None`: every
    /// module kept).
    pub last_offloaded: Option<usize>,
    /// Simulated step time, seconds.
    pub step_secs: f64,
    /// Activation peak, bytes.
    pub act_peak_bytes: u64,
    /// Exposed I/O, seconds: load and store stalls plus the optimizer's
    /// seconds inside the step.
    pub exposed_io_secs: f64,
    /// Bytes the step queued to the offload target
    /// ([`StepMetrics::ssd_host_writes`]).
    pub ssd_host_writes: u64,
}

impl CutoffPoint {
    fn of(last_offloaded: Option<usize>, m: &StepMetrics) -> CutoffPoint {
        let o = &m.offload;
        CutoffPoint {
            last_offloaded,
            step_secs: m.step_secs,
            act_peak_bytes: m.act_peak_bytes,
            exposed_io_secs: o.stall_secs + o.store_stall_secs + m.opt_secs + m.opt_exposed_secs,
            ssd_host_writes: m.ssd_host_writes,
        }
    }
}

/// A configuration run under its own adaptive plan and at every cutoff
/// that plan could have picked (ROADMAP direction 2's oracle).
#[derive(Debug, Clone)]
pub struct CutoffSweep {
    /// The configuration, e.g. `bert H8192 L4`.
    pub label: String,
    /// Modules the profile lists.
    pub modules: usize,
    /// How many of them the adaptive plan keeps.
    pub plan_kept: usize,
    /// The run under the adaptive plan. Its `last_offloaded` is the
    /// plan's cutoff; the plan may keep modules before it too (those
    /// whose stores were all still queued when forward ended).
    pub plan: CutoffPoint,
    /// One run per cutoff: every module kept, then the last offloaded
    /// module at 0, 1, …, `modules − 2` (the final module is always
    /// kept).
    pub cutoffs: Vec<CutoffPoint>,
}

impl CutoffSweep {
    /// The fastest step of any cutoff, seconds.
    pub fn fastest_secs(&self) -> f64 {
        let steps = self.cutoffs.iter().map(|p| p.step_secs);
        steps.fold(f64::INFINITY, f64::min)
    }

    /// The oracle's pick: among the cutoffs whose step is within 1 % of
    /// the fastest, the lowest activation peak, then the fewest bytes
    /// written, then the earliest cutoff.
    pub fn oracle(&self) -> CutoffPoint {
        let limit = self.fastest_secs() * 1.01;
        let fast = self.cutoffs.iter().filter(|p| p.step_secs <= limit);
        let best = fast.min_by_key(|p| (p.act_peak_bytes, p.ssd_host_writes));
        *best.expect("a sweep runs at least the keep-everything cutoff")
    }
}

/// Runs `cfg` once under the adaptive plan its profiling step derives,
/// then once per cutoff with that plan overridden
/// ([`ssdtrain::TensorCache::set_plan`]). Every run is a fresh session:
/// the profiling step, then two measured steps, the second recorded (the
/// first bootstraps the state an in-backward update reads ahead).
pub fn cutoff_sweep(label: impl Into<String>, cfg: &SessionConfig) -> CutoffSweep {
    // `cutoff`: `None` keeps the derived plan, `Some(last)` replaces it.
    let run = |cutoff: Option<Option<usize>>| {
        let mut session = TrainSession::new(cfg.clone()).expect("session construction");
        let (profile, mut plan) = session.profile_step().expect("profile step");
        let paths: Vec<String> = profile.modules.into_iter().map(|m| m.path).collect();
        if let Some(last) = cutoff {
            let first_kept = last.map_or(0, |m| m + 1);
            plan = AdaptivePlan {
                keep_paths: paths[first_kept..].iter().cloned().collect(),
                required_bps: Vec::new(),
                last_offloaded: last,
            };
            let cache = session.cache().expect("offload strategy owns a cache");
            cache.set_plan(plan.clone());
        }
        let _ = session.run_step().expect("measured step");
        let metrics = session.run_step().expect("measured step");
        let kept = paths.iter().filter(|p| plan.keeps(p)).count();
        let point = CutoffPoint::of(plan.last_offloaded, &metrics);
        (paths.len(), kept, point)
    };
    let (modules, plan_kept, plan) = run(None);
    let last = std::iter::once(None).chain((0..modules.saturating_sub(1)).map(Some));
    CutoffSweep {
        label: label.into(),
        modules,
        plan_kept,
        plan,
        cutoffs: last.map(|c| run(Some(c)).2).collect(),
    }
}

/// `sym_deep_tiered`'s configuration at `layers` layers: symbolic BERT
/// H2048 TP=2, batch 8, seed 7, on a 1 GiB DRAM tier in front of the
/// array, with 64 MiB segments, two-module prefetch groups two deep,
/// and gradients and optimizer state offloaded under the in-backward
/// update.
pub fn deep_tiered_config(layers: usize) -> SessionConfig {
    SessionConfig::builder()
        .model(ModelConfig::paper_scale(Arch::Bert, 2048, layers).with_tp(2))
        .batch_size(8)
        .symbolic(true)
        .seed(7)
        .strategy(PlacementStrategy::Offload)
        .backend(OffloadBackend::Tiered {
            dram_bytes: 1 << 30,
        })
        .coalesce_segment(64 << 20)
        .prefetch_group(2)
        .prefetch_depth(2)
        .offload(OffloadClass::Gradient, true)
        .offload(OffloadClass::OptimizerState, true)
        .overlap_optimizer(true)
        .momentum(0.9)
        .build()
        .expect("valid config")
}

/// The cutoff oracle over every gated configuration: `sym_deep_tiered`
/// at `deep_layers` layers (48 is the benchmark's), Figure 10's nine
/// offloading cells and `bench_tiering`'s three backends.
pub fn cutoff_sweeps(deep_layers: usize) -> Vec<CutoffSweep> {
    let label = format!("sym_deep_tiered L{deep_layers}");
    let mut sweeps = vec![cutoff_sweep(label, &deep_tiered_config(deep_layers))];
    for arch in [Arch::Bert, Arch::Gpt, Arch::T5] {
        for (hidden, layers) in FIG10_SHAPES {
            let cfg = paper_testbed(arch, hidden, layers, 16)
                .strategy(PlacementStrategy::Offload)
                .build()
                .expect("valid config");
            let label = format!("{arch} H{hidden} L{layers}");
            sweeps.push(cutoff_sweep(label, &cfg));
        }
    }
    for (label, backend) in BACKENDS {
        let label = format!("bench_tiering {label}");
        sweeps.push(cutoff_sweep(label, &tiering_config(backend)));
    }
    sweeps
}

/// `bench_capacity`: layer count of the probed BERT.
pub const CAPACITY_LAYERS: usize = 4;
/// `bench_capacity`: batch size.
pub const CAPACITY_BATCH: usize = 16;
/// `bench_capacity`: common hidden size for the overlap-timing
/// comparison, small enough that every backend fits it.
pub const CAPACITY_TIMING_HIDDEN: usize = 4096;
/// Hidden sizes are probed on this grid (attention heads want
/// power-of-two-ish multiples).
const CAPACITY_HIDDEN_STEP: usize = 512;
const CAPACITY_HIDDEN_MAX: usize = 32768;
/// A bounded pinned host pool: big enough for part of a step, far from
/// the unbounded array.
const CAPACITY_HOST_POOL_BYTES: u64 = 8 << 30;

fn capacity_session(
    backend: OffloadBackend,
    overlap: bool,
    hidden: usize,
    trace: TraceSink,
) -> TrainSession {
    let mut system = SystemConfig::dac_testbed();
    system.host_mem_bytes = CAPACITY_HOST_POOL_BYTES;
    let cfg = paper_testbed(Arch::Bert, hidden, CAPACITY_LAYERS, CAPACITY_BATCH)
        .system(system)
        .cache(TensorCacheConfig::default())
        .offload(OffloadClass::Gradient, true)
        .offload(OffloadClass::OptimizerState, true)
        .overlap_optimizer(overlap)
        .momentum(0.9)
        .backend(backend)
        .trace(trace)
        .build()
        .expect("valid config");
    TrainSession::new(cfg).expect("session construction")
}

/// Largest hidden size on the grid that fits, by binary search over the
/// grid indices (fitting is monotone in the model size). A size fits
/// when two steps — the first bootstraps the offloaded state, the
/// second is the steady-state shape — both stay under the device limit.
fn capacity_max_hidden(backend: OffloadBackend, overlap: bool) -> usize {
    let fits = |hidden: usize| {
        let mut s = capacity_session(backend, overlap, hidden, TraceSink::disabled());
        (0..2).all(|_| s.run_step().map(|m| !m.oom).unwrap_or(false))
    };
    let (mut lo, mut hi) = (0, CAPACITY_HIDDEN_MAX / CAPACITY_HIDDEN_STEP); // lo fits, hi unknown
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if fits(mid * CAPACITY_HIDDEN_STEP) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo * CAPACITY_HIDDEN_STEP
}

/// One (backend, overlap) configuration of `bench_capacity` at the
/// largest model it trains.
#[derive(Debug, Clone)]
pub struct CapacityRow {
    /// Backend label.
    pub label: &'static str,
    /// Whether the optimizer update is overlapped into backward.
    pub overlap: bool,
    /// Largest hidden size that trains without OOM.
    pub max_hidden: usize,
    /// The steady-state step at that size.
    pub metrics: StepMetrics,
    /// One steady-state optimizer update priced on the cost model.
    pub planned_state_io_secs: f64,
}

fn capacity_row(label: &'static str, backend: OffloadBackend, overlap: bool) -> CapacityRow {
    let best = capacity_max_hidden(backend, overlap);
    assert!(best > 0, "{label}: even the smallest model must fit");
    let mut s = capacity_session(backend, overlap, best, TraceSink::disabled());
    let _ = s.run_step().expect("bootstrap step");
    let metrics = s.run_step().expect("steady step");

    // Price one steady-state optimizer update on the cost model: every
    // state byte of the step loaded once and stored once on its tier.
    let cache = s.cache().expect("state classes force a cache");
    let cost = cache.cost_model();
    let state_bytes: u64 = [OffloadClass::Gradient, OffloadClass::OptimizerState]
        .iter()
        .filter_map(|c| metrics.offload.class(*c))
        .map(|c| c.offloaded_bytes)
        .sum();
    let planned_state_io_secs = cost.state_job_secs(0, state_bytes, state_bytes);

    CapacityRow {
        label,
        overlap,
        max_hidden: best,
        metrics,
        planned_state_io_secs,
    }
}

/// The offload backends `bench_tiering` and `bench_capacity` compare, in
/// table order.
const BACKENDS: [(&str, OffloadBackend); 3] = [
    ("ssd", OffloadBackend::Ssd),
    ("dram", OffloadBackend::Dram),
    ("tiered-4g", TIERED_4G),
];

/// Measures `bench_capacity`'s table: the largest BERT (L4, TP=2, batch
/// 16) that trains on one 40 GB A100 per backend, with gradients and
/// optimizer state offloaded alongside activations, update inline then
/// overlapped. The host pool is bounded so the dram-only backend hits
/// Figure 2's wall while the array keeps absorbing state.
pub fn capacity_rows() -> Vec<CapacityRow> {
    let mut rows = Vec::new();
    for (label, backend) in BACKENDS {
        for overlap in [false, true] {
            rows.push(capacity_row(label, backend, overlap));
        }
    }
    rows
}

/// Inline-vs-overlap optimizer timing of one backend at
/// [`CAPACITY_TIMING_HIDDEN`].
#[derive(Debug, Clone)]
pub struct CapacityTiming {
    /// Backend label.
    pub backend: &'static str,
    /// Steady step time, `[inline, overlapped]`.
    pub step_secs: [f64; 2],
    /// The inline optimizer update, seconds.
    pub opt_secs_inline: f64,
    /// What the in-backward update still exposes, seconds.
    pub opt_exposed_overlap: f64,
    /// In the in-backward run, how long after backward's end (the
    /// `ReduceGrads` stage's start) the step's last load landed: the
    /// state reads the update still waited for.
    pub overlap_tail: f64,
    /// The two steady steps in full, `[inline, overlapped]`.
    pub metrics: [StepMetrics; 2],
}

/// Measures `bench_capacity`'s overlap-timing lines, one per backend.
///
/// An inline update is bound by loading its state (gradients and
/// momentum) over the one PCIe read bus, whichever tier holds it. Every
/// backend's read link is priced at the GPU's own PCIe rate (the array
/// reads faster than PCIe carries), so the inline optimizer columns
/// agree on every backend: the state volume at that rate. The
/// in-backward update loads each parameter's momentum as autograd
/// finalises its gradient, so it exposes only the reads still in flight
/// when backward ends. The backends differ on the write side (step
/// time, store stall) and in where the bytes land (per-tier traffic);
/// `tests/paper_claims.rs` asserts all of it.
pub fn capacity_timings() -> Vec<CapacityTiming> {
    let steady = |backend: OffloadBackend, overlap: bool| {
        let trace = TraceSink::enabled();
        let mut s = capacity_session(backend, overlap, CAPACITY_TIMING_HIDDEN, trace.clone());
        // Step 1 bootstraps the offloaded state; the third is measured.
        let _ = s.run_step().expect("bootstrap step");
        let _ = s.run_step().expect("step");
        trace.clear();
        let metrics = s.run_step().expect("steady step");
        (metrics, trace.events())
    };
    let timing = |&(label, backend): &(&'static str, OffloadBackend)| {
        let (inline, _) = steady(backend, false);
        let (overlapped, overlap_events) = steady(backend, true);
        CapacityTiming {
            backend: label,
            step_secs: [inline.step_secs, overlapped.step_secs],
            opt_secs_inline: inline.opt_secs,
            opt_exposed_overlap: overlapped.opt_exposed_secs,
            overlap_tail: tail_after_backward(&overlap_events),
            metrics: [inline, overlapped],
        }
    };
    BACKENDS.iter().map(timing).collect()
}

/// Seconds from the last backward stage's end to the end of the last
/// `load` of a traced step, or 0 when every load landed inside backward.
fn tail_after_backward(events: &[TraceEvent]) -> f64 {
    let backward = events.iter().filter(|e| e.name == "stage.backward");
    let end = backward.map(|e| e.end()).fold(SimTime::ZERO, SimTime::max);
    let loads = events.iter().filter(|e| e.name == "load");
    let landed = loads.map(|e| e.end()).fold(end, SimTime::max);
    landed.since(end)
}

/// `bench_io`: fixed per-store-job submission cost (driver/syscall/queue
/// doorbell) — the term that makes many small jobs slower than few
/// large ones.
const IO_STORE_JOB_OVERHEAD_SECS: f64 = 1e-3;
/// `bench_io`: media bytes each write op charges beyond its payload
/// (mapping granularity / page padding) — the term that inflates the
/// effective WAF of small writes.
const IO_SSD_WRITE_OVERHEAD_BYTES: u64 = 512 << 10;
/// `bench_io`: bounded DRAM front tier, small enough that most of what
/// is written reaches the flash where the wear meter watches it: the
/// queue here outlasts the step, backward forwards its tail, and only
/// the head (about 1.2 GB of the 3.45 GB) crosses to a device at all.
const IO_DRAM_FRONT_BYTES: u64 = 128 << 20;

/// One arm of `bench_io`'s ablation.
#[derive(Debug)]
pub struct IoArm {
    /// Arm name; coalesced arms start with `coalesced-`.
    pub name: &'static str,
    /// Coalescing segment size (0 = per-tensor stores).
    pub segment_bytes: u64,
    /// Group size in modules (0 = per-module prefetch path).
    pub group_modules: usize,
    /// Prefetch lookahead (modules or groups); 0 disables prefetch.
    pub depth: usize,
}

/// One measured arm of `bench_io`.
#[derive(Debug, Clone)]
pub struct IoRow {
    /// The arm's configuration.
    pub arm: &'static IoArm,
    /// Step time, seconds.
    pub step_secs: f64,
    /// Effective WAF off the SSD tier's wear meter.
    pub waf: f64,
    /// The step's offload counters.
    pub offload: OffloadStats,
}

const IO_ARMS: [IoArm; 4] = [
    // Baseline: every tensor its own store job, backward loads only
    // when unpack blocks on them.
    IoArm {
        name: "per-tensor-ondemand",
        segment_bytes: 0,
        group_modules: 0,
        depth: 0,
    },
    // The paper's configuration: per-tensor stores, per-module
    // prefetch two modules ahead.
    IoArm {
        name: "per-tensor-depth2",
        segment_bytes: 0,
        group_modules: 0,
        depth: 2,
    },
    // The coalesced path at two segment sizes, both reloading backward
    // groups of two modules under the group look-ahead.
    IoArm {
        name: "coalesced-64m-group",
        segment_bytes: 64 << 20,
        group_modules: 2,
        depth: 2,
    },
    IoArm {
        name: "coalesced-256m-group",
        segment_bytes: 256 << 20,
        group_modules: 2,
        depth: 2,
    },
];

fn io_row(arm: &'static IoArm) -> IoRow {
    let builder = paper_testbed(Arch::Bert, 2048, 8, 8)
        .strategy(PlacementStrategy::Offload)
        .backend(OffloadBackend::Tiered {
            dram_bytes: IO_DRAM_FRONT_BYTES,
        })
        .system(SystemConfig {
            store_job_overhead_secs: IO_STORE_JOB_OVERHEAD_SECS,
            ssd_write_overhead_bytes: IO_SSD_WRITE_OVERHEAD_BYTES,
            ..SystemConfig::dac_testbed()
        })
        .cache(TensorCacheConfig {
            prefetch_depth: arm.depth,
            coalesce_segment_bytes: arm.segment_bytes,
            prefetch_group_modules: arm.group_modules,
            // Every arm queues the same bytes (see `io_rows`).
            cancel_forwarded_stores: false,
            ..TensorCacheConfig::default()
        });
    let cfg = builder.build().expect("valid config");
    let mut session = TrainSession::new(cfg).expect("session construction");
    let metrics = session.run_step().expect("measured step");

    // Effective WAF straight off the SSD tier's wear meter: media
    // bytes (payload + per-op overhead) over host bytes.
    let cache = session.cache().expect("offload strategy owns a cache");
    let waf = cache
        .tiers()
        .tier_ids()
        .into_iter()
        .find(|t| cache.tiers().name(*t) == "ssd")
        .and_then(|t| cache.tiers().device(t))
        .and_then(|d| d.wear_snapshot())
        .map(|w| w.effective_waf())
        .unwrap_or(0.0);

    IoRow {
        arm,
        step_secs: metrics.step_secs,
        waf,
        offload: metrics.offload,
    }
}

/// Measures `bench_io`'s four arms (BERT H2048 L8, batch 8, TP=2,
/// tiered backend): per-tensor stores vs coalesced segments, on-demand
/// backward loads vs the group look-ahead, every arm paying the same
/// per-store-job and per-write-op overheads. The look-ahead leaves the
/// group arms no load stall (per-tensor depth-2 prefetch keeps 0.0165 s);
/// the rows are write-bound, so the same seconds surface as store stall
/// at backward's exit and `step s` does not move. The arms run with
/// `cancel_forwarded_stores` off so each queues the same bytes — with
/// it on, backward cancels the unstarted tail of the per-tensor queue
/// (only a sole-member job can be cancelled) and those arms offload a
/// third of the bytes.
pub fn io_rows() -> Vec<IoRow> {
    IO_ARMS.iter().map(io_row).collect()
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
