//! A training session: model + simulated hardware + placement strategy.

use crate::error::StepError;
use crate::executor::GpuExecutor;
use crate::metrics::StepMetrics;
use crate::opt_engine::{OptEngine, OptReport};
use crate::schedule::{single_gpu_schedule, with_lookahead, StepCmd};
use ssdtrain::{
    AdaptivePlan, ArgValue, CpuTarget, FaultyTarget, IoEngine, MemoryTraceBridge, MetricsRegistry,
    OffloadClass, OffloadTarget, PlacementStrategy, RecoveryPolicy, SsdTarget, StageHint,
    StepProfile, TensorCache, TensorCacheConfig, Tier, TierLink, TierStack, TraceCategory,
    TraceSink,
};
use ssdtrain_autograd::optim::Sgd;
use ssdtrain_autograd::{Graph, Phase};
use ssdtrain_models::{Batch, Model, ModelConfig, Recompute};
use ssdtrain_simhw::system::GpuRuntime;
use ssdtrain_simhw::{FaultLog, FaultPlan, SimTime, SystemConfig};
use ssdtrain_tensor::Device;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which [`OffloadClass`]es the session moves through the tier stack.
///
/// Activations follow the placement strategy as before; the gradient
/// and optimizer-state lanes are what turn the session into the
/// GreedySnake-style configuration — state lives off-GPU between steps
/// and the weight update becomes per-stage jobs (see
/// [`crate::opt_engine::OptEngine`]). Built fluently through
/// [`SessionBuilder::offload`](crate::builder::SessionBuilder::offload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OffloadClassSet {
    enabled: [bool; 3],
}

impl Default for OffloadClassSet {
    /// Activations only — the paper's original configuration.
    fn default() -> OffloadClassSet {
        OffloadClassSet::activation_only()
    }
}

impl OffloadClassSet {
    /// Activations only (the pre-class default).
    pub fn activation_only() -> OffloadClassSet {
        OffloadClassSet {
            enabled: [true, false, false],
        }
    }

    /// Every class: activations, gradients and optimizer state.
    pub fn all() -> OffloadClassSet {
        OffloadClassSet {
            enabled: [true, true, true],
        }
    }

    /// No class at all (everything stays resident).
    pub fn none() -> OffloadClassSet {
        OffloadClassSet {
            enabled: [false; 3],
        }
    }

    /// Returns the set with `class` switched to `enabled`.
    pub fn with(mut self, class: OffloadClass, enabled: bool) -> OffloadClassSet {
        self.enabled[class.index()] = enabled;
        self
    }

    /// Whether `class` is selected for offloading.
    pub fn contains(&self, class: OffloadClass) -> bool {
        self.enabled[class.index()]
    }

    /// Whether any *state* class (gradient or optimizer state) is
    /// selected — these are what require the cache even when the
    /// activation strategy is keep/recompute.
    pub fn any_state(&self) -> bool {
        self.contains(OffloadClass::Gradient) || self.contains(OffloadClass::OptimizerState)
    }

    /// The selected classes, in [`OffloadClass::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = OffloadClass> + '_ {
        OffloadClass::ALL.into_iter().filter(|c| self.contains(*c))
    }
}

/// The tier stack the session's cache offloads into. The single-tier
/// backends reproduce the flat designs exactly; `Tiered` is the regime
/// 10Cache/MemAscend identify — a bounded DRAM front tier spilling into
/// the high-endurance SSD array, each priced on its own simulated link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OffloadBackend {
    /// One unbounded SSD-array tier (the paper's configuration).
    #[default]
    Ssd,
    /// One host-DRAM tier bounded by `SystemConfig::host_mem_bytes`,
    /// priced on the raw PCIe link.
    Dram,
    /// DRAM front tier of `dram_bytes` capacity spilling to the SSD
    /// array when full.
    Tiered {
        /// Admission capacity of the DRAM front tier in bytes.
        dram_bytes: u64,
    },
}

/// Configuration of a [`TrainSession`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The machine (Table 3 by default).
    pub system: SystemConfig,
    /// The model (its `tp` should match the machine's GPU count for the
    /// paper's tensor-parallel setup).
    pub model: ModelConfig,
    /// Global batch size in sequences.
    pub batch_size: usize,
    /// Micro-batches per step (gradient accumulation; the paper's
    /// single-node experiments use 1).
    pub micro_batches: usize,
    /// Activation placement strategy (the ROK corner to run).
    pub strategy: PlacementStrategy,
    /// Tensor-cache tunables (used only for `Offload`).
    pub cache: TensorCacheConfig,
    /// Shape-only execution (paper-scale runs).
    pub symbolic: bool,
    /// Seed for weights, data and dropout.
    pub seed: u64,
    /// The offload backend: tier stack plus the links its transfers are
    /// priced on (single SSD tier by default).
    pub backend: OffloadBackend,
    /// Which tensor classes ride the tier stack (activations only by
    /// default). State classes work under any activation strategy: the
    /// cache is built for them even when activations stay resident.
    pub offload: OffloadClassSet,
    /// Defer each step's optimizer update into the next step's forward
    /// window (the GreedySnake overlap); `false` runs the per-stage
    /// update jobs inline at the `OptimizerStep` stage.
    pub overlap_optimizer: bool,
    /// SGD momentum (0 keeps the paper's stateless configuration; a
    /// positive value allocates per-parameter velocity, the optimizer
    /// state the `OptimizerState` class moves off-GPU).
    pub momentum: f32,
    /// Deterministic fault schedule injected between the cache and the
    /// offload target (`None` for a healthy device). Recovery follows
    /// `cache.recovery`.
    pub fault: Option<FaultPlan>,
    /// Spill-of-last-resort backend for
    /// [`RecoveryPolicy::FallbackTarget`] (`None` defaults to the host
    /// pinned pool; the tiered backend is rejected at build time — a
    /// fallback must be a single device).
    pub fallback: Option<OffloadBackend>,
    /// Trace sink receiving the session's tensor-lifecycle events
    /// (disabled by default; see [`TraceSink::enabled`]).
    pub trace: TraceSink,
}

impl SessionConfig {
    /// Starts a validated, fluent [`SessionBuilder`](crate::SessionBuilder).
    pub fn builder() -> crate::builder::SessionBuilder {
        crate::builder::SessionBuilder::new()
    }
}

/// A live training session on one simulated GPU.
pub struct TrainSession {
    cfg: SessionConfig,
    device: Device,
    runtime: GpuRuntime,
    executor: Arc<GpuExecutor>,
    model: Model,
    cache: Option<Arc<TensorCache>>,
    faulty: Option<Arc<FaultyTarget>>,
    optimizer: Sgd,
    opt_engine: Option<OptEngine>,
    spill_dirs: Vec<PathBuf>,
    trace: TraceSink,
    metrics: MetricsRegistry,
    step_idx: u64,
}

fn stage_hint(cmd: StepCmd) -> StageHint {
    match cmd {
        StepCmd::LoadMicroBatch { mb } => StageHint::MicroBatchLoad(mb),
        StepCmd::ForwardPass { .. } => StageHint::Forward,
        StepCmd::StageBoundary => StageHint::Communication,
        StepCmd::BackwardPass { .. } => StageHint::Backward,
        StepCmd::ReduceGrads => StageHint::Communication,
        StepCmd::OptimizerStep => StageHint::Optimizer,
    }
}

fn unique_spill_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ssdtrain-spill-{}-{}-{n}",
        std::process::id(),
        tag.replace('/', "_")
    ))
}

impl TrainSession {
    /// Builds the session: instantiates runtime, model, optimizer and —
    /// for the offload strategy — the tensor cache over an SSD spill
    /// directory.
    ///
    /// # Errors
    /// Returns an error if the spill directory cannot be created.
    pub fn new(cfg: SessionConfig) -> std::io::Result<TrainSession> {
        let device = if cfg.symbolic {
            Device::symbolic()
        } else {
            Device::cpu()
        };
        let runtime = cfg.system.instantiate();
        device.set_tracker(runtime.memory.clone());
        let model = Model::build(&cfg.model, &device, cfg.seed);
        let executor = Arc::new(GpuExecutor::new(
            runtime.clock.clone(),
            cfg.system.gpu.clone(),
            cfg.system.nvlink_bps,
            cfg.model.tp,
        ));
        let mut spill_dirs = Vec::new();
        // State classes (gradients, optimizer state) need the tier stack
        // even when the activation strategy keeps or recomputes — the
        // GreedySnake configuration offloads *only* state.
        let wants_cache = cfg.strategy.uses_cache() || cfg.offload.any_state();
        let (cache, faulty) = if wants_cache {
            let mut new_ssd = |tag: &str| -> std::io::Result<Arc<dyn OffloadTarget>> {
                let dir = unique_spill_dir(tag);
                let wear = cfg
                    .system
                    .ssd_array
                    .wear_meter(1.0)
                    .with_write_overhead(cfg.system.ssd_write_overhead_bytes);
                let t = Arc::new(SsdTarget::new(&dir, wear)?);
                spill_dirs.push(dir);
                Ok(t)
            };
            // One tier to build: its device plus an optional pack-time
            // admission capacity (links stay per-index alongside).
            struct TierSpec {
                name: &'static str,
                device: Arc<dyn OffloadTarget>,
                capacity: Option<u64>,
            }
            // Build the tier stack and the simulated link each tier's
            // transfers are priced on. Single-tier backends keep the
            // flat link name ("offload"), so traces and numerics stay
            // identical to the pre-tier design; host memory offers
            // symmetric bandwidth over the raw PCIe link while the SSD
            // path is capped by the array.
            let (mut specs, links) = match cfg.backend {
                OffloadBackend::Ssd => (
                    vec![TierSpec {
                        name: "ssd",
                        device: new_ssd(&cfg.model.tag())?,
                        capacity: None,
                    }],
                    vec![TierLink::new(
                        "offload",
                        cfg.system.offload_write_bps(),
                        cfg.system.offload_read_bps(),
                    )],
                ),
                OffloadBackend::Dram => (
                    // The paper sizes the pinned pool by profiling;
                    // we grant the whole host memory (Figure 2).
                    vec![TierSpec {
                        name: "cpu",
                        device: Arc::new(CpuTarget::new(cfg.system.host_mem_bytes)),
                        capacity: None,
                    }],
                    vec![TierLink::new(
                        "offload",
                        cfg.system.host_offload_bps(),
                        cfg.system.host_offload_bps(),
                    )],
                ),
                OffloadBackend::Tiered { dram_bytes } => (
                    vec![
                        TierSpec {
                            name: "dram",
                            device: Arc::new(CpuTarget::new(dram_bytes)),
                            capacity: Some(dram_bytes),
                        },
                        TierSpec {
                            name: "ssd",
                            device: new_ssd(&cfg.model.tag())?,
                            capacity: None,
                        },
                    ],
                    vec![
                        TierLink::new(
                            "dram",
                            cfg.system.host_offload_bps(),
                            cfg.system.host_offload_bps(),
                        ),
                        TierLink::new(
                            "ssd",
                            cfg.system.offload_write_bps(),
                            cfg.system.offload_read_bps(),
                        ),
                    ],
                ),
            };
            // An injected fault plan sits between the cache and the
            // *front* tier's device (the one placement hits first).
            let faulty: Option<Arc<FaultyTarget>> = match cfg.fault.clone() {
                Some(plan) => {
                    let front = &mut specs[0].device;
                    let ft = FaultyTarget::new(front.clone(), plan);
                    *front = ft.clone();
                    Some(ft)
                }
                None => None,
            };
            // Every offload byte crosses the one physical PCIe bus
            // regardless of which tier absorbs it, so store jobs
            // serialise across links instead of draining in parallel —
            // this is what makes the tiered backend's drain land between
            // dram's and ssd's on the step critical path.
            let io = IoEngine::tiered_with_bus(runtime.clock.clone(), links, cfg.system.pcie_bps);
            io.set_store_job_overhead(cfg.system.store_job_overhead_secs);
            if let Some(ft) = &faulty {
                ft.attach_io(io.clone());
                ft.set_trace(cfg.trace.clone());
            }
            let tiers: Vec<Tier> = specs
                .into_iter()
                .enumerate()
                .map(|(link, spec)| {
                    let tier = Tier::new(spec.name, spec.device, link);
                    match spec.capacity {
                        Some(bytes) => tier.with_capacity(bytes),
                        None => tier,
                    }
                })
                .collect();
            let cache = TensorCache::with_tiers(
                cfg.cache.clone(),
                Arc::new(TierStack::new(tiers)),
                io,
                runtime.memory.clone(),
            );
            cache.set_trace(cfg.trace.clone());
            if cfg.cache.recovery == RecoveryPolicy::FallbackTarget {
                // Spill of last resort (host pinned pool by default).
                // `Tiered` is rejected by the builder, so any other
                // value maps to the pinned pool here.
                let fallback: Arc<dyn OffloadTarget> =
                    match cfg.fallback.unwrap_or(OffloadBackend::Dram) {
                        OffloadBackend::Ssd => {
                            let dir = unique_spill_dir(&format!("{}-fb", cfg.model.tag()));
                            let wear = cfg
                                .system
                                .ssd_array
                                .wear_meter(1.0)
                                .with_write_overhead(cfg.system.ssd_write_overhead_bytes);
                            let t = Arc::new(SsdTarget::new(&dir, wear)?);
                            spill_dirs.push(dir);
                            t
                        }
                        _ => Arc::new(CpuTarget::new(cfg.system.host_mem_bytes)),
                    };
                cache.set_fallback_target(fallback);
            }
            for p in model.parameters() {
                cache.register_parameter(&p.tensor());
            }
            (Some(cache), faulty)
        } else {
            (None, None)
        };
        if cfg.trace.is_enabled() {
            runtime
                .memory
                .set_peak_observer(MemoryTraceBridge::new(cfg.trace.clone()));
        }
        let optimizer = Sgd::with_momentum(model.parameters(), 0.05, cfg.momentum);
        // The per-stage scheduling engine exists whenever the session
        // moves state classes or overlaps the update; the legacy
        // outside-the-window optimizer is kept byte-identical otherwise.
        let opt_engine = (cfg.offload.any_state() || cfg.overlap_optimizer).then(|| {
            OptEngine::new(
                cfg.offload,
                cfg.overlap_optimizer,
                optimizer.len(),
                cfg.model.layers.max(1),
            )
        });
        let trace = cfg.trace.clone();
        Ok(TrainSession {
            cfg,
            device,
            runtime,
            executor,
            model,
            cache,
            faulty,
            optimizer,
            opt_engine,
            spill_dirs,
            trace,
            metrics: MetricsRegistry::new(),
            step_idx: 0,
        })
    }

    /// The model under training.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The tensor cache, when the strategy is `Offload`.
    pub fn cache(&self) -> Option<&Arc<TensorCache>> {
        self.cache.as_ref()
    }

    /// Firing counters of the injected fault plan (`None` when the
    /// session runs without one).
    pub fn fault_log(&self) -> Option<FaultLog> {
        self.faulty.as_ref().map(|f| f.fault_log())
    }

    /// The trace sink this session emits into (disabled unless the
    /// config carried an enabled one).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Named counters/gauges/histograms accumulated over the session's
    /// steps (offload statistics land here after every step).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn fresh_graph(&self) -> Graph {
        let g = Graph::new(&self.device, self.cfg.seed ^ (self.step_idx << 17));
        g.set_observer(self.executor.clone());
        if let Some(cache) = &self.cache {
            // The activation lane hooks the graph only when the strategy
            // offloads activations; a state-only session still owns the
            // cache for its gradient/optimizer-state slots.
            if self.cfg.strategy.uses_cache() {
                cache.install(&g);
            }
        }
        g
    }

    /// Runs one profiling step (offload strategy only) and applies the
    /// resulting adaptive plan to subsequent steps (Section 3.3.3).
    ///
    /// # Errors
    /// Returns a [`StepError`] if the offload stack reported a failure
    /// recovery could not absorb.
    ///
    /// # Panics
    /// Panics if the strategy is not `Offload`.
    pub fn profile_step(&mut self) -> Result<(StepProfile, AdaptivePlan), StepError> {
        let cache = self
            .cache
            .clone()
            .expect("profile_step requires the offload strategy");
        if let Some(engine) = self.opt_engine.as_mut() {
            // A profiling step never updates weights; drop any deferred
            // update so its gradients are not half-consumed.
            engine.abort(self.cache.as_deref());
        }
        self.runtime.reset();
        self.executor.reset();
        self.trace.next_step();
        self.trace.instant(
            TraceCategory::Session,
            "step.begin",
            self.runtime.clock.now(),
        );
        cache.begin_profile_step();
        let g = self.fresh_graph();
        g.set_phase(Phase::Forward);
        let batch = self.next_batch(0);
        let loss = self.model.forward_loss(&g, &batch, self.recompute_policy());
        let result = cache.end_profile_step();
        cache.prefetch_last_module();
        g.backward(&loss);
        cache.wait_io();
        cache.drain_stores();
        g.reset_tape();
        cache.flush();
        cache.stats().export_to(&self.metrics);
        self.trace
            .instant(TraceCategory::Session, "step.end", self.runtime.clock.now());
        self.optimizer.zero_grad();
        self.step_idx += 1;
        match cache.take_error() {
            Some(error) => Err(StepError {
                error,
                metrics: None,
            }),
            None => {
                // The profile's per-module forward times sharpen the
                // overlapped optimizer's stage-arrival forecast (the
                // forward is not uniform across modules).
                if let Some(engine) = self.opt_engine.as_mut() {
                    engine.note_profile(&result.0);
                }
                Ok(result)
            }
        }
    }

    /// Maps a scheduler command to the hint the cache understands.
    fn recompute_policy(&self) -> Recompute {
        match self.cfg.strategy {
            PlacementStrategy::Recompute => Recompute::All,
            PlacementStrategy::Hybrid { recompute_layers } => {
                Recompute::FirstLayers(recompute_layers)
            }
            _ => Recompute::None,
        }
    }

    fn next_batch(&self, micro_batch: usize) -> Batch {
        let per_mb = self.cfg.batch_size / self.cfg.micro_batches.max(1);
        Batch::synthetic(
            &self.cfg.model,
            per_mb.max(1),
            self.cfg
                .seed
                .wrapping_mul(1000)
                .wrapping_add(self.step_idx * 64 + micro_batch as u64),
            &self.device,
        )
    }

    /// Runs one measured training step under the configured strategy and
    /// returns its metrics.
    ///
    /// # Errors
    /// Returns a [`StepError`] when the offload stack reported a
    /// failure recovery could not absorb — a store failure under
    /// [`RecoveryPolicy::FailStep`], or a permanently failed load under
    /// any policy. The degraded step's metrics travel inside the error;
    /// the optimizer update is skipped (gradients are cleared), so the
    /// training loop can checkpoint, re-plan or retry the step.
    pub fn run_step(&mut self) -> Result<StepMetrics, StepError> {
        self.runtime.reset();
        self.executor.reset();
        self.trace.next_step();
        self.trace.instant(
            TraceCategory::Session,
            "step.begin",
            self.runtime.clock.now(),
        );
        // The whole measured step as one manually closed span: the end
        // timestamp is simulated time, so RAII cannot close it — the
        // span-balance lint proves both exits below end it.
        let step_span =
            self.trace
                .begin_span(TraceCategory::Session, "step", self.runtime.clock.now());
        if let Some(cache) = &self.cache {
            cache.begin_step();
        }
        // Overlapped optimizer: the previous step's deferred update runs
        // now, at t = 0, its state loads racing the forecast forward
        // arrivals (GreedySnake). Only the delay the forward window
        // cannot hide lands on the clock.
        let mut opt_report = OptReport::default();
        if let Some(engine) = self.opt_engine.as_mut() {
            opt_report = engine.begin_step(
                self.cache.as_deref(),
                &mut self.optimizer,
                &self.runtime.clock,
                &self.trace,
            );
        }
        let g = self.fresh_graph();
        let recompute = self.recompute_policy();
        let mut losses = Vec::new();
        let mut fwd_end = SimTime::ZERO;
        let mut pending_loss = None;

        // Algorithm 1's `deepspeed_exec_schedule`: walk the command
        // stream with one-command lookahead, entering a stage scope
        // around each execution (line 9; the guard's drop is line 15).
        let cmds = single_gpu_schedule(self.cfg.micro_batches.max(1));
        for (cmd, next) in with_lookahead(&cmds) {
            let stage = stage_hint(cmd);
            let stage_start = self.runtime.clock.now();
            let scope = self.cache.as_ref().map(|cache| cache.stage_scope(stage));
            if let (Some(scope), Some(next)) = (&scope, next) {
                if cmd.is_boundary() {
                    scope.announce_next(stage_hint(next)); // lines 10-13
                }
            }
            match cmd {
                StepCmd::LoadMicroBatch { mb } => {
                    g.set_micro_batch(mb);
                }
                StepCmd::ForwardPass { mb } => {
                    g.set_phase(Phase::Forward);
                    let batch = self.next_batch(mb);
                    let loss = self.model.forward_loss(&g, &batch, recompute);
                    fwd_end = self.runtime.clock.now();
                    if loss.tensor().has_data() {
                        losses.push(loss.tensor().item());
                    }
                    pending_loss = Some(loss);
                }
                StepCmd::BackwardPass { .. } => {
                    let loss = pending_loss.take().expect("forward precedes backward");
                    g.backward(&loss);
                    g.reset_tape();
                }
                StepCmd::StageBoundary => {}
                StepCmd::ReduceGrads => {
                    // Data parallelism degree 1: nothing to reduce, but
                    // this is where the gradient class leaves the GPU —
                    // the stores drain at this stage scope's exit, on
                    // the step that produced the gradients.
                    if let Some(engine) = self.opt_engine.as_mut() {
                        engine.stash_grads(self.cache.as_deref(), &self.optimizer);
                    }
                }
                StepCmd::OptimizerStep => {
                    // With the engine, the update joins the measured
                    // window (inline per-stage jobs) or is deferred to
                    // the next step's begin (overlap). Without it, the
                    // legacy optimizer runs outside the window (below).
                    if let Some(engine) = self.opt_engine.as_mut() {
                        let r = engine.end_of_step(
                            self.cache.as_deref(),
                            &mut self.optimizer,
                            &self.runtime.clock,
                            &self.trace,
                        );
                        opt_report.inline_secs += r.inline_secs;
                        opt_report.exposed_secs += r.exposed_secs;
                    }
                }
            }
            match scope {
                Some(scope) => drop(scope), // line 15 + stage span
                None if self.trace.is_enabled() => self.trace.span(
                    TraceCategory::Stage,
                    stage.trace_label(),
                    stage_start,
                    self.runtime.clock.now(),
                ),
                None => {}
            }
        }

        if let Some(cache) = &self.cache {
            cache.flush();
        }
        if let Some(engine) = self.opt_engine.as_mut() {
            engine.note_forward_secs(self.executor.phase_secs(Phase::Forward));
        }
        let step_secs = self.runtime.clock.now().as_secs();
        let timeline = self.runtime.memory.timeline();
        // Strictly-before: the first backward node's frees are stamped at
        // exactly the forward-end instant (the clock advances only after
        // its kernel) and must not be counted into the forward level.
        let act_at_bwd_start = timeline
            .iter()
            .take_while(|p| p.time < fwd_end)
            .last()
            .map(|p| p.activations)
            .unwrap_or(0);
        let offload = self.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let ssd_host_writes = self
            .cache
            .as_ref()
            .map(|c| c.io().bytes_written())
            .unwrap_or(0);
        let metrics = StepMetrics {
            strategy: self.cfg.strategy.label().to_owned(),
            model: self.cfg.model.tag(),
            batch: self.cfg.batch_size,
            step_secs,
            fwd_secs: self.executor.phase_secs(Phase::Forward),
            act_peak_bytes: self.runtime.memory.peak_activations(),
            total_peak_bytes: self.runtime.memory.peak_total(),
            act_at_bwd_start,
            timeline,
            offload,
            model_flops: self.executor.model_flops(),
            comm_secs: self.executor.comm_secs(),
            ssd_host_writes,
            alloc: self.runtime.memory.allocator_stats(),
            oom: self.runtime.memory.oom(),
            loss: losses.iter().copied().sum::<f32>() / losses.len().max(1) as f32,
            opt_secs: opt_report.inline_secs,
            opt_exposed_secs: opt_report.exposed_secs,
        };
        metrics.offload.export_to(&self.metrics);
        self.metrics.inc_counter("session.steps", 1);
        self.metrics.observe("session.step_secs", step_secs);
        if self.opt_engine.is_some() {
            self.metrics
                .observe("session.opt_secs", opt_report.inline_secs);
            self.metrics
                .observe("session.opt_exposed_secs", opt_report.exposed_secs);
        }
        self.trace.instant_with(
            TraceCategory::Session,
            "step.end",
            self.runtime.clock.now(),
            vec![("secs", ArgValue::F64(step_secs))],
        );
        if let Some(error) = self.cache.as_ref().and_then(|c| c.take_error()) {
            // The step is tainted: skip the weight update (dropping any
            // deferred one with it), clear the accumulated gradients and
            // hand the degraded metrics to the caller inside the error.
            if let Some(engine) = self.opt_engine.as_mut() {
                engine.abort(self.cache.as_deref());
            }
            self.optimizer.zero_grad();
            self.step_idx += 1;
            step_span.end(self.runtime.clock.now());
            return Err(StepError {
                error,
                metrics: Some(Box::new(metrics)),
            });
        }
        // Without the engine, the optimizer runs outside the measured
        // window (constant offset in the paper's comparison, Section
        // 4.1). The engine paths already updated inline — or deferred
        // the update (and its still-needed gradients) to the next step.
        if self.opt_engine.is_none() {
            self.optimizer.step();
            self.optimizer.zero_grad();
        }
        self.step_idx += 1;
        step_span.end(self.runtime.clock.now());
        Ok(metrics)
    }
}

impl Drop for TrainSession {
    fn drop(&mut self) {
        for dir in &self.spill_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl std::fmt::Debug for TrainSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainSession")
            .field("model", &self.cfg.model.tag())
            .field("strategy", &self.cfg.strategy)
            .field("symbolic", &self.cfg.symbolic)
            .field("steps_run", &self.step_idx)
            .finish()
    }
}
