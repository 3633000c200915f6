//! The four workloads: what runs, what is timed, what is checked.
//!
//! Every workload is a closed loop with one client on one thread: the
//! next step starts when the previous one returned. An *operation* is
//! one measured step; it fails if the step errs, reports degraded-mode
//! recovery, yields a non-finite loss, or breaks an output check.

use crate::hostcost::{self, AllocSnapshot};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::probes::{self, numeric_model, NUMERIC_BATCH};
use crate::replay::{self, ReplayRig, StepReport};
use crate::spans::Span;
use crate::stats::{median, median_u64, quantile, Metric};
use ssdtrain::{
    chrome_trace_json, OffloadClass, OffloadStats, PlacementStrategy, StepProfile,
    TensorCacheConfig, TraceEvent, TraceSink,
};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_tensor::Device;
use ssdtrain_train::{OffloadBackend, SessionConfig, StepError, StepMetrics, TrainSession};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Numeric GPT, every activation kept: kernels, tape and model only.
    FuncKeep,
    /// The same model offloading everything to a file-backed SSD target.
    FuncOffloadSsd,
    /// No model: the cache's hook protocol replayed over DRAM → SSD
    /// tiers with coalesced segments and state slots.
    ReplayTieredSegments,
    /// Symbolic paper-scale BERT on the tiered backend, all classes.
    SymDeepTiered,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::FuncKeep,
        Workload::FuncOffloadSsd,
        Workload::ReplayTieredSegments,
        Workload::SymDeepTiered,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FuncKeep => "func_keep",
            Workload::FuncOffloadSsd => "func_offload_ssd",
            Workload::ReplayTieredSegments => "replay_tiered_segments",
            Workload::SymDeepTiered => "sym_deep_tiered",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed for weights, data, dropout and replay payloads.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub traced: bool,
    /// Three steps per workload, one set-up, short probes.
    pub quick: bool,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further numbers for the reader: percentiles, sample counts, and
    /// the end-to-end quantities of a traced run.
    pub extra: Vec<Metric>,
    /// Harness wall spans of the last traced step.
    pub spans: Vec<Span>,
    /// Chrome-trace JSON of the program's own events for that step.
    pub sim_trace: Option<String>,
}

impl Outcome {
    fn op(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            let room = 12usize.saturating_sub(self.failures.len());
            self.failures.extend(failures.into_iter().take(room));
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(if ok { Vec::new() } else { vec![what()] });
    }
}

/// The simulated-clock results of one step. Deterministic: equal steps
/// must compare bit-equal.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct SimNumbers {
    step_s: f64,
    exposed_s: f64,
    act_peak_bytes: u64,
    ssd_write_bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_ns: u64,
    allocs: AllocSnapshot,
    sim: SimNumbers,
}

/// Decides when the measured loop ends.
struct Budget {
    start: Instant,
    on_cpu_ns: Option<u64>,
    seconds: f64,
    quick: bool,
}

impl Budget {
    const QUICK_STEPS: usize = 3;
    /// Fewest measured steps of a full run, however slow the host.
    const MIN_STEPS: usize = 5;

    fn start(o: &Opts) -> Budget {
        Budget {
            start: Instant::now(),
            on_cpu_ns: hostcost::on_cpu_ns(),
            seconds: o.seconds,
            quick: o.quick,
        }
    }

    /// Share of the loop's wall time this process was on a CPU. Near 1
    /// with slow steps means a contended core, not a descheduled process.
    fn on_cpu_frac(&self) -> Metric {
        let wall_ns = self.start.elapsed().as_nanos() as f64;
        let cpu_ns = match (self.on_cpu_ns, hostcost::on_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64,
            _ => 0.0,
        };
        Metric::new(
            "host_on_cpu_frac",
            if wall_ns > 0.0 { cpu_ns / wall_ns } else { 0.0 },
            "ratio",
        )
    }

    fn more(&self, done: usize) -> bool {
        if self.quick {
            done < Budget::QUICK_STEPS
        } else {
            done < Budget::MIN_STEPS || self.start.elapsed().as_secs_f64() < self.seconds
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn walls_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| ms(s.wall_ns)).collect()
}

/// The fastest sample. On this shared sandbox a neighbour's load only
/// ever adds time to a step, and the minimum is the one order statistic
/// that repeats from run to run (the README has the spreads); the median
/// and the p90 are printed beside it.
fn fastest(samples: &[f64]) -> f64 {
    quantile(samples, 0.0)
}

/// Set-ups per plain run. `setup_s` is the fastest of them, like every
/// other wall-clock figure here: over ten runs of `func_keep` the fastest
/// of five spread 16 % and their median 25 % (README, *Noise*).
const SETUPS: usize = 5;

/// Sets up [`SETUPS`] times (once in `--quick`), dropping each rig before
/// the next is built. Returns the last rig and every set-up's seconds.
fn timed_setups<R>(quick: bool, mut build: impl FnMut() -> R) -> (R, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUPS);
    loop {
        let t0 = Instant::now();
        let rig = build();
        secs.push(t0.elapsed().as_secs_f64());
        if quick || secs.len() == SETUPS {
            return (rig, secs);
        }
    }
}

/// The end-to-end metrics (and their companions) from a plain run.
fn end_to_end(setups: &[f64], samples: &[Sample]) -> (Vec<Metric>, Vec<Metric>) {
    let walls = walls_ms(samples);
    let alloc_bytes: Vec<u64> = samples.iter().map(|s| s.allocs.bytes).collect();
    let alloc_calls: Vec<u64> = samples.iter().map(|s| s.allocs.calls).collect();
    let last = samples.last().map(|s| s.sim).unwrap_or_default();
    let mut v = Values::new(&END_TO_END);
    v.set("setup_s", fastest(setups));
    // Medians, not means: the run is as long as `--seconds` allows, and a
    // per-step median does not move with the number of steps.
    v.set(
        "host_alloc_mb_per_step",
        median_u64(&alloc_bytes) as f64 / 1e6,
    );
    v.set("host_allocs_per_step", median_u64(&alloc_calls) as f64);
    v.set(
        "peak_rss_mb",
        hostcost::peak_rss_bytes().unwrap_or(0) as f64 / 1e6,
    );
    v.set("sim_step_s", last.step_s);
    v.set(
        "sim_act_peak_gib",
        last.act_peak_bytes as f64 / (1u64 << 30) as f64,
    );
    let extra = vec![
        Metric::new("host_step_ms", fastest(&walls), "ms"),
        Metric::new("host_step_median_ms", median(&walls), "ms"),
        Metric::new("host_step_p90_ms", quantile(&walls, 0.9), "ms"),
        Metric::new("host_step_samples", walls.len() as f64, "count"),
        Metric::new("setup_median_s", median(setups), "s"),
        Metric::new("setup_slowest_s", quantile(setups, 1.0), "s"),
        Metric::new("setup_samples", setups.len() as f64, "count"),
        Metric::new("sim_exposed_io_s", last.exposed_s, crate::metrics::SIM_S),
        Metric::new("sim_ssd_write_gb", last.ssd_write_bytes as f64 / 1e9, "GB"),
    ];
    (v.into_metrics(), extra)
}

/// Steps of a deterministic workload must all read the same on the
/// simulated clock once warm.
fn steady_sim_check(out: &mut Outcome, samples: &[Sample]) {
    let Some(last) = samples.last() else { return };
    let drifted = samples.iter().position(|s| s.sim != last.sim);
    out.check(drifted.is_none(), || {
        format!(
            "measured step {} differs from the last on the simulated clock",
            drifted.unwrap_or(0)
        )
    });
}

// ---------------------------------------------------------------------
// Trace-side checks shared by the session and replay workloads
// ---------------------------------------------------------------------

fn sum_bytes(events: &[TraceEvent], name: &str) -> u64 {
    events
        .iter()
        .filter(|e| e.name == name)
        .filter_map(TraceEvent::bytes)
        .sum()
}

/// The trace-vs-counters byte identity of `tests/trace_observability.rs`:
/// what the events say was stored, loaded and cancelled is what the
/// counters say.
fn accounting_failures(events: &[TraceEvent], stats: &OffloadStats) -> Vec<String> {
    let mut failures = Vec::new();
    let kept = sum_bytes(events, "recovery.keep_resident");
    let fallback = sum_bytes(events, "recovery.fallback");
    let stored = sum_bytes(events, "store.enqueue") as i128
        - sum_bytes(events, "store.cancel") as i128
        - kept as i128
        - fallback as i128;
    let mut expect = |what: &str, trace: i128, counter: u64| {
        if trace != i128::from(counter) {
            failures.push(format!(
                "trace says {trace} {what} bytes, counters say {counter}"
            ));
        }
    };
    expect("stored", stored, stats.offloaded_bytes);
    expect(
        "loaded",
        i128::from(sum_bytes(events, "load")),
        stats.reloaded_bytes,
    );
    expect(
        "cancelled",
        i128::from(sum_bytes(events, "store.cancel")),
        stats.cancelled_bytes,
    );
    expect("fallback", i128::from(fallback), stats.fallback_bytes);
    expect("kept-resident", i128::from(kept), stats.kept_resident_bytes);
    failures
}

/// Takes one step's events off `sink` (bounding its memory), checks the
/// byte identity and keeps the events of the latest step for export.
#[derive(Default)]
struct TraceTap {
    events: u64,
    steps: u64,
    last: Vec<TraceEvent>,
}

impl TraceTap {
    fn take(&mut self, sink: &TraceSink, stats: &OffloadStats) -> Vec<String> {
        let events = sink.events();
        sink.clear();
        let failures = accounting_failures(&events, stats);
        self.events += events.len() as u64;
        self.steps += 1;
        self.last = events;
        failures
    }

    fn fill(&self, v: &mut Values, plain_ms: f64, traced_ms: f64) -> String {
        v.set(
            "trace.events_per_step",
            self.events as f64 / self.steps.max(1) as f64,
        );
        // Records the cache sent to a store queue, counted from its own
        // events: one per tensor, however many share a segment's job.
        let enqueued = self.last.iter().filter(|e| e.name == "store.enqueue");
        v.set("cache.stores", enqueued.count() as f64);
        if plain_ms > 0.0 {
            v.set("trace.overhead_frac", traced_ms / plain_ms - 1.0);
        }
        let t0 = Instant::now();
        let json = chrome_trace_json(&self.last);
        v.set("trace.chrome_export_ms", t0.elapsed().as_secs_f64() * 1e3);
        json
    }
}

/// What every traced run reports about its two rigs' wall times and its
/// trace: `host_step_ms` (the untraced rig's — end-to-end numbers never
/// come from a traced step), the traced p90, the `trace.*` metrics. Also
/// returns the program's Chrome trace, the reader's extras and the
/// fastest traced step in ms.
fn fill_traced_walls(
    v: &mut Values,
    tap: &TraceTap,
    sim: SimNumbers,
    plain: &[Sample],
    traced: &[Sample],
) -> (String, Vec<Metric>, f64) {
    let plain_ms = fastest(&walls_ms(plain));
    let traced_walls = walls_ms(traced);
    let traced_ms = fastest(&traced_walls);
    v.set("host_step_ms", plain_ms);
    v.set("sim_exposed_io_s", sim.exposed_s);
    v.set("sim_ssd_write_gb", sim.ssd_write_bytes as f64 / 1e9);
    v.set("train.sim_compute_s", sim.step_s - sim.exposed_s);
    v.set("train.step_wall_p90_ms", quantile(&traced_walls, 0.9));
    let chrome = tap.fill(v, plain_ms, traced_ms);
    let extra = vec![
        Metric::new("host_step_ms_traced", traced_ms, "ms"),
        Metric::new("host_step_samples", traced_walls.len() as f64, "count"),
    ];
    (chrome, extra, traced_ms)
}

/// Counters of the offload stack, as per-layer metrics. All zero on a
/// workload that bypasses the cache.
fn fill_offload_counters(
    v: &mut Values,
    s: &OffloadStats,
    sim_step_s: f64,
    segment_bytes: u64,
    slab_reuses_before: u64,
) {
    let mb = |b: u64| b as f64 / 1e6;
    let device_writes: u64 = s.tiers.iter().map(|t| t.stores).sum();
    let device_reads: u64 = s.tiers.iter().map(|t| t.loads).sum();
    v.set("cache.dedup_hits", s.dedup_hits as f64);
    v.set("cache.forwarded", s.forwarded as f64);
    v.set("cache.cancelled_stores", s.cancelled_stores as f64);
    v.set("cache.kept", s.kept as f64);
    v.set("cache.prefetches", s.prefetches as f64);
    v.set("cache.sync_loads", s.sync_loads as f64);
    v.set("cache.offloaded_mb", mb(s.offloaded_bytes));
    v.set("cache.reloaded_mb", mb(s.reloaded_bytes));
    v.set("cache.load_stall_s", s.stall_secs);
    v.set("cache.store_stall_s", s.store_stall_secs);
    v.set("coalesce.segments", s.coalesce_segments as f64);
    if s.coalesce_segments > 0 && segment_bytes > 0 {
        v.set(
            "coalesce.fill_ratio",
            s.coalesced_bytes as f64 / (s.coalesce_segments * segment_bytes) as f64,
        );
    }
    v.set("coalesce.evictions", s.coalesce_evictions as f64);
    v.set("io.store_jobs", s.store_jobs as f64);
    let write_busy: f64 = s.tiers.iter().map(|t| t.write_busy_secs).sum();
    let read_busy: f64 = s.tiers.iter().map(|t| t.read_busy_secs).sum();
    v.set("io.write_busy_s", write_busy);
    v.set("io.read_busy_s", read_busy);
    if sim_step_s > 0.0 {
        v.set("io.write_util", write_busy / sim_step_s);
        v.set("io.read_util", read_busy / sim_step_s);
    }
    let (mut front, mut ssd) = (0u64, 0u64);
    for t in &s.tiers {
        if t.name == "ssd" {
            ssd += t.bytes_written;
        } else {
            front += t.bytes_written;
        }
    }
    v.set("tier.front_mb", mb(front));
    v.set("tier.ssd_mb", mb(ssd));
    v.set("tier.spilled_mb", mb(s.spilled_bytes));
    v.set("tier.stall_s", s.tiers.iter().map(|t| t.stall_secs).sum());
    v.set("target.write_calls", device_writes as f64);
    v.set("target.read_calls", device_reads as f64);
    v.set("simhw.arena_high_water_mb", mb(s.arena_high_water_bytes));
    v.set(
        "simhw.arena_slab_reuses",
        s.arena_slab_reuses.saturating_sub(slab_reuses_before) as f64,
    );
}

/// Runs the probes of the layers that do `w`'s work. Probe inputs are
/// fixed, so each probe belongs to one workload's traced run and reads 0
/// in the others': the whole command measures it once.
fn run_probes(w: Workload, v: &mut Values, quick: bool) {
    let reps = if quick { 3 } else { 30 };
    match w {
        Workload::FuncKeep => {
            probes::kernels(v, reps);
            // Whole-model passes, 150 ms each: a third as many.
            probes::autograd(v, (reps / 3).max(2));
        }
        Workload::FuncOffloadSsd => probes::serialisation(v, reps),
        Workload::ReplayTieredSegments => probes::store_path(v, reps),
        Workload::SymDeepTiered => {
            probes::simhw(v, reps);
            probes::planner(v, reps);
        }
    }
}

// ---------------------------------------------------------------------
// Session workloads
// ---------------------------------------------------------------------

const SYM_SEGMENT_BYTES: u64 = 64 << 20;

fn sym_model() -> ModelConfig {
    ModelConfig::paper_scale(Arch::Bert, 2048, 48).with_tp(2)
}

const SYM_BATCH: usize = 8;

fn session_config(w: Workload, seed: u64, sink: TraceSink) -> SessionConfig {
    let b = SessionConfig::builder().seed(seed).trace(sink);
    let b = match w {
        Workload::FuncKeep => b
            .model(numeric_model())
            .batch_size(NUMERIC_BATCH)
            .strategy(PlacementStrategy::Keep),
        Workload::FuncOffloadSsd => b
            .model(numeric_model())
            .batch_size(NUMERIC_BATCH)
            .strategy(PlacementStrategy::Offload)
            .cache(TensorCacheConfig::offload_everything())
            .backend(OffloadBackend::Ssd),
        Workload::SymDeepTiered => b
            .model(sym_model())
            .batch_size(SYM_BATCH)
            .symbolic(true)
            .strategy(PlacementStrategy::Offload)
            .backend(OffloadBackend::Tiered {
                dram_bytes: 1 << 30,
            })
            .coalesce_segment(SYM_SEGMENT_BYTES)
            .prefetch_group(2)
            .prefetch_depth(2)
            .offload(OffloadClass::Gradient, true)
            .offload(OffloadClass::OptimizerState, true)
            .overlap_optimizer(true)
            .momentum(0.9),
        Workload::ReplayTieredSegments => unreachable!("the replay workload builds no session"),
    };
    b.build().expect("the workload configurations are valid")
}

/// The same model, seed and batch with every activation kept and nothing
/// offloaded: the reference the offloading workloads are checked against.
fn keep_twin_config(w: Workload, seed: u64) -> SessionConfig {
    let b = SessionConfig::builder()
        .seed(seed)
        .strategy(PlacementStrategy::Keep);
    let b = match w {
        Workload::SymDeepTiered => b
            .model(sym_model())
            .batch_size(SYM_BATCH)
            .symbolic(true)
            .momentum(0.9),
        _ => b.model(numeric_model()).batch_size(NUMERIC_BATCH),
    };
    b.build().expect("the twin configurations are valid")
}

fn tokens_per_step(w: Workload) -> f64 {
    match w {
        Workload::SymDeepTiered => (SYM_BATCH * sym_model().seq) as f64,
        _ => (NUMERIC_BATCH * numeric_model().seq) as f64,
    }
}

/// What the keep twin measured.
#[derive(Debug, Clone, Copy)]
struct Twin {
    /// Its simulated step: pure compute, so the offloading session's
    /// compute share must equal it.
    sim_step_s: f64,
    /// Bytes its last step — a warm one — requested from the allocator.
    alloc_bytes: u64,
}

struct SessionRig {
    session: TrainSession,
    new_ms: f64,
    profile_ms: f64,
    profile: Option<StepProfile>,
    twin: Option<Twin>,
}

fn timed_step(session: &mut TrainSession) -> (Result<StepMetrics, StepError>, u64, AllocSnapshot) {
    let a0 = AllocSnapshot::now();
    let t0 = Instant::now();
    let r = session.run_step();
    let ns = t0.elapsed().as_nanos() as u64;
    (r, ns, AllocSnapshot::now().since(a0))
}

fn exposed_io_secs(m: &StepMetrics) -> f64 {
    m.offload.stall_secs + m.offload.store_stall_secs + m.opt_secs + m.opt_exposed_secs
}

/// The output checks every session step must pass.
fn step_failures(
    w: Workload,
    r: &Result<StepMetrics, StepError>,
    twin: Option<&Twin>,
) -> Vec<String> {
    let m = match r {
        Ok(m) => m,
        Err(e) => return vec![e.to_string()],
    };
    let mut f = Vec::new();
    if m.degraded() {
        f.push("recovery engaged on a healthy device".to_owned());
    }
    if w != Workload::SymDeepTiered && !m.loss.is_finite() {
        f.push(format!("loss is {}", m.loss));
    }
    let exposed = exposed_io_secs(m);
    let compute = m.step_secs - exposed;
    if exposed > m.step_secs {
        f.push(format!(
            "exposed I/O {exposed} s exceeds the step's {} s",
            m.step_secs
        ));
    }
    // fwd + bwd + load stall + store stall + optimizer = step, with
    // backward the one part the program does not report: it must not
    // come out negative.
    if compute - m.fwd_secs < -1e-9 {
        f.push(format!(
            "step parts overshoot: forward {} s + exposed {exposed} s > step {} s",
            m.fwd_secs, m.step_secs
        ));
    }
    if let Some(t) = twin {
        if (compute - t.sim_step_s).abs() > 1e-9 {
            f.push(format!(
                "compute share {compute} s differs from the keep twin's step {} s",
                t.sim_step_s
            ));
        }
    }
    if w == Workload::FuncKeep && (exposed != 0.0 || m.ssd_host_writes != 0) {
        f.push("the keep workload touched the offload path".to_owned());
    }
    f
}

fn sim_numbers(m: &StepMetrics) -> SimNumbers {
    SimNumbers {
        step_s: m.step_secs,
        exposed_s: exposed_io_secs(m),
        act_peak_bytes: m.act_peak_bytes,
        ssd_write_bytes: m.ssd_host_writes,
    }
}

/// Builds and warms one session: the work `setup_s` times.
fn build_rig(o: &Opts, sink: TraceSink, out: &mut Outcome) -> SessionRig {
    let w = o.workload;
    let offloads = w != Workload::FuncKeep;
    // Steps compared bit for bit against the keep twin (numeric offload).
    let checked = match (w, o.quick) {
        (Workload::FuncOffloadSsd, false) => 5,
        (Workload::FuncOffloadSsd, true) => 2,
        _ => 0,
    };
    let warmup = match (w, o.quick) {
        (Workload::FuncKeep, false) => 5,
        (Workload::FuncOffloadSsd, false) => 2,
        (Workload::SymDeepTiered, false) => 50,
        (_, true) => 1,
        (Workload::ReplayTieredSegments, _) => unreachable!("not a session workload"),
    };

    let mut twin_losses = Vec::new();
    let twin = offloads.then(|| {
        let mut keep =
            TrainSession::new(keep_twin_config(w, o.seed)).expect("a keep session has no spill");
        let mut twin = Twin {
            sim_step_s: 0.0,
            alloc_bytes: 0,
        };
        // At least three steps, so that the last one is warm: past the
        // optimizer state the first step allocates.
        for _ in 0..checked.max(3) {
            let (r, _, allocs) = timed_step(&mut keep);
            let m = r.expect("a keep session cannot fail an offload");
            twin_losses.push(m.loss.to_bits());
            twin = Twin {
                sim_step_s: m.step_secs,
                alloc_bytes: allocs.bytes,
            };
        }
        twin
    });

    let t0 = Instant::now();
    let mut session = TrainSession::new(session_config(w, o.seed, sink)).expect("spill directory");
    let new_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The adaptive plan comes from profiling, so these steps run on the
    // default plan: same numerics, which is all they are compared on.
    for (k, want) in twin_losses.iter().enumerate().take(checked) {
        let r = session.run_step();
        let mut f = step_failures(w, &r, None);
        if let Ok(m) = &r {
            if m.loss.to_bits() != *want {
                f.push(format!(
                    "step {k}: loss {} is not the keep twin's {}",
                    m.loss,
                    f32::from_bits(*want)
                ));
            }
        }
        out.op(f);
    }

    let mut profile = None;
    let mut profile_ms = 0.0;
    if offloads {
        let t0 = Instant::now();
        match session.profile_step() {
            Ok((p, _plan)) => profile = Some(p),
            Err(e) => out.op(vec![format!("profile step: {e}")]),
        }
        profile_ms = t0.elapsed().as_secs_f64() * 1e3;
    }
    for _ in 0..warmup {
        let r = session.run_step();
        // Warm-up steps are not operations, but a failure here must not
        // pass silently.
        if let Err(e) = &r {
            out.op(vec![format!("warm-up step: {e}")]);
        }
    }
    SessionRig {
        session,
        new_ms,
        profile_ms,
        profile,
        twin,
    }
}

fn leftover_spill_dirs() -> Vec<String> {
    let prefix = format!("ssdtrain-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .map(|d| {
            d.filter_map(Result::ok)
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with(&prefix))
                .collect()
        })
        .unwrap_or_default()
}

fn run_session_plain(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let w = o.workload;
    let (mut rig, setups) = timed_setups(o.quick, || build_rig(o, TraceSink::disabled(), &mut out));

    let mut samples: Vec<Sample> = Vec::with_capacity(4096);
    let budget = Budget::start(o);
    while budget.more(samples.len()) {
        let (r, wall_ns, allocs) = timed_step(&mut rig.session);
        out.op(step_failures(w, &r, rig.twin.as_ref()));
        if let Ok(m) = r {
            samples.push(Sample {
                wall_ns,
                allocs,
                sim: sim_numbers(&m),
            });
        } else if samples.len() + out.failed as usize > 4096 {
            break;
        }
    }
    let on_cpu = budget.on_cpu_frac();
    if w == Workload::SymDeepTiered {
        steady_sim_check(&mut out, &samples);
    }
    drop(rig);
    let left = leftover_spill_dirs();
    out.check(left.is_empty(), || {
        format!("spill directories left behind: {left:?}")
    });
    (out.metrics, out.extra) = end_to_end(&setups, &samples);
    out.extra.push(on_cpu);
    out
}

fn run_session_traced(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let w = o.workload;
    // Two sessions of the same configuration and seed take turns, one
    // with the sink off and one with it on: the pair sees the same
    // machine weather, so their ratio is the tracing overhead.
    let sink = TraceSink::enabled();
    let mut plain = build_rig(o, TraceSink::disabled(), &mut out);
    let mut traced = build_rig(o, sink.clone(), &mut out);
    sink.clear();

    let log = crate::spans::SpanLog::shared();
    let mut tap = TraceTap::default();
    let (mut plain_samples, mut traced_samples) = (Vec::new(), Vec::new());
    let mut last: Option<StepMetrics> = None;
    let mut reuses_before = 0;
    let budget = Budget::start(o);
    while budget.more(traced_samples.len()) {
        let (r, wall_ns, allocs) = timed_step(&mut plain.session);
        out.op(step_failures(w, &r, plain.twin.as_ref()));
        let plain_sim = r.as_ref().ok().map(sim_numbers);
        if let Some(sim) = plain_sim {
            plain_samples.push(Sample {
                wall_ns,
                allocs,
                sim,
            });
        }

        crate::spans::lock(&log).begin_step(traced_samples.len() as u32 + 1, 4);
        let (r, wall_ns, allocs) = crate::spans::spanned(Some(&log), "run_step", "train", || {
            timed_step(&mut traced.session)
        });
        let mut f = step_failures(w, &r, traced.twin.as_ref());
        if let Ok(m) = r {
            f.extend(tap.take(&sink, &m.offload));
            let sim = sim_numbers(&m);
            // Tracing observes; it must not steer.
            if plain_sim.is_some_and(|p| p != sim) {
                f.push("traced and untraced steps differ on the simulated clock".to_owned());
            }
            traced_samples.push(Sample {
                wall_ns,
                allocs,
                sim,
            });
            reuses_before = last
                .as_ref()
                .map_or(0, |prev| prev.offload.arena_slab_reuses);
            last = Some(m);
        } else {
            sink.clear();
        }
        out.op(f);
        let (_, spans) = crate::spans::lock(&log).take_step();
        out.spans = spans;
        if out.failed > 64 {
            break;
        }
    }
    if w == Workload::SymDeepTiered {
        steady_sim_check(&mut out, &traced_samples);
    }

    let mut v = Values::new(&PER_LAYER);
    let sim = last.as_ref().map(sim_numbers).unwrap_or_default();
    let (chrome, extra, traced_ms) =
        fill_traced_walls(&mut v, &tap, sim, &plain_samples, &traced_samples);
    (out.sim_trace, out.extra) = (Some(chrome), extra);
    if let Some(m) = &last {
        let segment = traced.session.config().cache.coalesce_segment_bytes;
        fill_offload_counters(&mut v, &m.offload, m.step_secs, segment, reuses_before);
        v.set("simhw.timeline_points", m.timeline.len() as f64);
        let compute = m.step_secs - sim.exposed_s;
        v.set("train.sim_fwd_s", m.fwd_secs);
        v.set("train.sim_bwd_s", compute - m.fwd_secs);
        v.set("train.sim_comm_s", m.comm_secs);
        v.set("train.sim_opt_s", m.opt_secs);
        v.set("train.sim_opt_exposed_s", m.opt_exposed_secs);
        if let Some(cache) = traced.session.cache() {
            v.set(
                "adaptive.kept_modules",
                cache.plan().keep_paths.len() as f64,
            );
            let waf = cache
                .tiers()
                .tier_ids()
                .into_iter()
                .filter_map(|t| cache.tiers().device(t))
                .find_map(|d| d.wear_snapshot())
                .map_or(0.0, |wear| wear.effective_waf());
            v.set("target.waf", waf);
            if let Some(profile) = &traced.profile {
                let model = cache.cost_model();
                let assignment = model.front_first_assignment(profile);
                let ratio = traced.session.config().cache.bwd_fwd_ratio;
                let predicted = model.modeled_step_secs(profile, &assignment, ratio);
                v.set(
                    "costmodel.pred_err_frac",
                    (predicted - m.step_secs).abs() / m.step_secs,
                );
            }
        }
        if let Some(twin) = &traced.twin {
            // The untraced rig's steps: the traced one also allocates
            // its events.
            let alloc = median_u64(
                &plain_samples
                    .iter()
                    .map(|s| s.allocs.bytes)
                    .collect::<Vec<_>>(),
            );
            if m.offload.offloaded_bytes > 0 {
                v.set(
                    "cache.alloc_b_per_spilled_b",
                    alloc.saturating_sub(twin.alloc_bytes) as f64
                        / m.offload.offloaded_bytes as f64,
                );
            }
        }
    }
    v.set(
        "train.session_new_ms",
        fastest(&[plain.new_ms, traced.new_ms]),
    );
    v.set(
        "train.profile_step_ms",
        fastest(&[plain.profile_ms, traced.profile_ms]),
    );
    if traced_ms > 0.0 {
        v.set(
            "train.tokens_per_host_s",
            tokens_per_step(w) / (traced_ms / 1e3),
        );
    }
    drop((plain, traced));
    let left = leftover_spill_dirs();
    out.check(left.is_empty(), || {
        format!("spill directories left behind: {left:?}")
    });
    run_probes(w, &mut v, o.quick);
    let saved = match w {
        Workload::SymDeepTiered => {
            probes::saved_per_step(&sym_model(), SYM_BATCH, &Device::symbolic())
        }
        _ => probes::saved_per_step(&numeric_model(), NUMERIC_BATCH, &Device::cpu()),
    };
    v.set("autograd.saved_per_step", saved as f64);
    out.metrics = v.into_metrics();
    out
}

// ---------------------------------------------------------------------
// The replay workload
// ---------------------------------------------------------------------

fn replay_sim(r: &StepReport) -> SimNumbers {
    SimNumbers {
        step_s: r.sim_step_secs,
        exposed_s: r.sim_exposed_io_secs(),
        act_peak_bytes: r.act_peak_bytes,
        ssd_write_bytes: r.ssd_written_bytes,
    }
}

fn replay_sample(r: &StepReport) -> Sample {
    Sample {
        wall_ns: r.wall_ns,
        allocs: r.allocs,
        sim: replay_sim(r),
    }
}

/// Device calls seen by the decorator must be the device writes the tier
/// counters report: two independent counts of one thing.
fn replay_cross_checks(r: &StepReport) -> Vec<String> {
    let mut f = r.failures.clone();
    let counted: u64 = r.stats.tiers.iter().map(|t| t.stores).sum();
    let seen = r.target.write_calls + r.target.write_batch_calls;
    if counted != seen {
        f.push(format!(
            "tier counters report {counted} device writes, the decorator saw {seen}"
        ));
    }
    if r.sim_exposed_io_secs() > r.sim_step_secs {
        f.push("exposed I/O exceeds the step".to_owned());
    }
    f
}

/// Builds and warms the rig: the work `setup_s` times.
fn build_replay(o: &Opts, traced: bool) -> ReplayRig {
    let mut rig = ReplayRig::new(o.seed, traced).expect("spill directory");
    for _ in 0..if o.quick { 1 } else { 5 } {
        let _ = rig.step();
    }
    rig.sink().clear();
    rig
}

fn finish_replay(out: &mut Outcome, rig: ReplayRig) {
    let left = rig.spill_entries();
    out.check(left == 0, || {
        format!("{left} spill files outlive the last flush")
    });
    let dir = rig.spill_dir().to_path_buf();
    drop(rig);
    out.check(!dir.exists(), || {
        format!("{} outlives the rig", dir.display())
    });
}

fn run_replay_plain(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (mut rig, setups) = timed_setups(o.quick, || build_replay(o, false));
    let mut samples = Vec::with_capacity(1024);
    let budget = Budget::start(o);
    while budget.more(samples.len()) && out.failed <= 64 {
        let r = rig.step();
        out.op(replay_cross_checks(&r));
        samples.push(replay_sample(&r));
    }
    let on_cpu = budget.on_cpu_frac();
    steady_sim_check(&mut out, &samples);
    finish_replay(&mut out, rig);
    (out.metrics, out.extra) = end_to_end(&setups, &samples);
    out.extra.push(on_cpu);
    out
}

fn per_call_us(summaries: &[crate::spans::StepSummary], name: &str) -> f64 {
    let all: Vec<f64> = summaries
        .iter()
        .filter_map(|s| s.by_name.get(name))
        .flatten()
        .map(|ns| *ns as f64 / 1e3)
        .collect();
    median(&all)
}

fn run_replay_traced(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut plain = build_replay(o, false);
    let mut traced = build_replay(o, true);
    let mut tap = TraceTap::default();
    let (mut plain_samples, mut traced_samples) = (Vec::new(), Vec::new());
    let mut reports: Vec<StepReport> = Vec::new();
    let budget = Budget::start(o);
    while budget.more(traced_samples.len()) && out.failed <= 64 {
        let p = plain.step();
        out.op(replay_cross_checks(&p));
        plain_samples.push(replay_sample(&p));

        let t = traced.step();
        let mut f = replay_cross_checks(&t);
        f.extend(tap.take(traced.sink(), &t.stats));
        if replay_sim(&p) != replay_sim(&t) {
            f.push("traced and untraced steps differ on the simulated clock".to_owned());
        }
        out.op(f);
        traced_samples.push(replay_sample(&t));
        reports.push(t);
    }
    steady_sim_check(&mut out, &traced_samples);

    let mut v = Values::new(&PER_LAYER);
    let sim = reports.last().map(replay_sim).unwrap_or_default();
    let (chrome, extra, _) = fill_traced_walls(&mut v, &tap, sim, &plain_samples, &traced_samples);
    (out.sim_trace, out.extra) = (Some(chrome), extra);
    if let Some(last) = reports.last() {
        let reuses_before = reports
            .len()
            .checked_sub(2)
            .map_or(0, |i| reports[i].stats.arena_slab_reuses);
        fill_offload_counters(
            &mut v,
            &last.stats,
            last.sim_step_secs,
            replay::SEGMENT_BYTES,
            reuses_before,
        );
        v.set("simhw.timeline_points", last.timeline_points as f64);
        v.set("target.waf", traced.ssd_waf());

        // What the decorator measured at the device boundary.
        let t = last.target;
        v.set(
            "target.write_calls",
            (t.write_calls + t.write_batch_calls) as f64,
        );
        v.set("target.write_batch_calls", t.write_batch_calls as f64);
        v.set("target.read_calls", t.read_calls as f64);
        if last.ssd_forward.write_batch_calls > 0 {
            v.set(
                "target.files_per_segment",
                last.ssd_forward_files as f64 / last.ssd_forward.write_batch_calls as f64,
            );
        }
        v.set("target.read_alloc_mb", t.read_alloc_bytes as f64 / 1e6);
        let per_step = |f: fn(&replay::TargetStats) -> u64| -> f64 {
            fastest(
                &reports
                    .iter()
                    .map(|r| f(&r.target) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        let (write_ns, read_ns) = (per_step(|t| t.write_ns), per_step(|t| t.read_ns));
        v.set("target.write_ms_per_step", write_ns / 1e6);
        v.set("target.read_ms_per_step", read_ns / 1e6);
        if write_ns > 0.0 {
            v.set(
                "target.write_mb_per_s",
                t.written_bytes as f64 / 1e6 / (write_ns / 1e9),
            );
        }
        if read_ns > 0.0 {
            v.set(
                "target.read_mb_per_s",
                t.read_bytes as f64 / 1e6 / (read_ns / 1e9),
            );
        }
        if last.stats.offloaded_bytes > 0 {
            let alloc = median_u64(
                &plain_samples
                    .iter()
                    .map(|s| s.allocs.bytes)
                    .collect::<Vec<_>>(),
            );
            v.set(
                "cache.alloc_b_per_spilled_b",
                alloc as f64 / last.stats.offloaded_bytes as f64,
            );
        }
    }
    let summaries: Vec<_> = reports.iter().filter_map(|r| r.spans.clone()).collect();
    v.set("cache.pack_us", per_call_us(&summaries, "pack"));
    v.set("cache.unpack_us", per_call_us(&summaries, "unpack"));
    v.set("cache.drain_us", per_call_us(&summaries, "drain_stores"));
    v.set(
        "cache.state_store_us",
        per_call_us(&summaries, "offload_state"),
    );
    v.set("cache.state_load_us", per_call_us(&summaries, "load_state"));
    let self_ms: Vec<f64> = summaries
        .iter()
        .map(|s| ms(s.self_ns.get("cache").copied().unwrap_or(0)))
        .collect();
    v.set("cache.self_ms_per_step", fastest(&self_ms));
    out.spans = traced.last_spans().to_vec();
    finish_replay(&mut out, plain);
    finish_replay(&mut out, traced);
    run_probes(o.workload, &mut v, o.quick);
    // No tape here: what the rig itself asked the cache to save.
    v.set(
        "autograd.saved_per_step",
        reports.last().map_or(0, |r| r.packs) as f64,
    );
    out.extra.push(Metric::new(
        "payload_mb_per_step",
        replay::payload_bytes_per_step() as f64 / 1e6,
        "MB",
    ));
    out.metrics = v.into_metrics();
    out
}

/// Runs the workload `o` names.
pub fn run(o: &Opts) -> Outcome {
    match (o.workload, o.traced) {
        (Workload::ReplayTieredSegments, false) => run_replay_plain(o),
        (Workload::ReplayTieredSegments, true) => run_replay_traced(o),
        (_, false) => run_session_plain(o),
        (_, true) => run_session_traced(o),
    }
}
