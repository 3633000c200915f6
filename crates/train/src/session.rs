//! A training session: model + simulated hardware + placement strategy.

use crate::error::StepError;
use crate::executor::GpuExecutor;
use crate::metrics::StepMetrics;
use crate::opt_engine::OptEngine;
use crate::schedule::{single_gpu_schedule, with_lookahead, StepCmd};
use ssdtrain::{
    AdaptivePlan, ArgValue, CpuTarget, FaultyTarget, IoEngine, MemoryTraceBridge, OffloadClass,
    OffloadTarget, PlacementStrategy, RecoveryPolicy, SsdTarget, StageHint, StepProfile,
    TensorCache, TensorCacheConfig, Tier, TierLink, TierStack, TraceCategory, TraceSink,
};
use ssdtrain_autograd::optim::Sgd;
use ssdtrain_autograd::{Graph, Phase, Var};
use ssdtrain_models::{Batch, Model, ModelConfig, Recompute};
use ssdtrain_simhw::system::GpuRuntime;
use ssdtrain_simhw::{FaultLog, FaultPlan, SimClock, SimTime, SystemConfig};
use ssdtrain_tensor::{Device, Prng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which [`OffloadClass`]es the session moves through the tier stack.
///
/// Activations follow the placement strategy as before; the gradient
/// and optimizer-state lanes are what turn the session into the
/// GreedySnake-style configuration — state lives off-GPU between steps
/// and the weight update becomes per-stage jobs after backward, or runs
/// inside backward under [`SessionConfig::overlap_optimizer`]. There a
/// gradient is used in place and never stored, so selecting
/// [`OffloadClass::Gradient`] only makes the session build its cache.
/// Built fluently through
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
}

/// The tier stack the session's cache offloads into. `Ssd` and `Dram`
/// are one tier each; `Tiered` is the regime
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
    /// Tensor-cache tunables, used when the session has a cache: its
    /// strategy uses one (`Offload`, `Hybrid`) or it offloads a state
    /// class.
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
    /// Under `overlap_optimizer` no gradient is ever stored, so the
    /// gradient class only makes the session build its cache.
    pub offload: OffloadClassSet,
    /// Update each parameter inside the step's last backward pass, as
    /// soon as autograd finalises its gradient (the optimizer-in-backward
    /// overlap); `false` runs the per-stage update jobs inline at the
    /// `OptimizerStep` stage. The in-backward update uses each gradient
    /// in place and stores none, whether or not `offload` selects the
    /// gradient class.
    pub overlap_optimizer: bool,
    /// SGD momentum (0 keeps the paper's stateless configuration; a
    /// positive value allocates per-parameter velocity, the optimizer
    /// state the `OptimizerState` class moves off-GPU).
    pub momentum: f32,
    /// Deterministic fault schedule injected between the cache and the
    /// offload target (`None` for a healthy device). Recovery follows
    /// `cache.recovery`.
    pub fault: Option<FaultPlan>,
    /// Trace sink receiving the session's tensor-lifecycle events
    /// (disabled by default; see [`TraceSink::enabled`]).
    pub trace: TraceSink,
}

impl SessionConfig {
    /// Starts a validated, fluent [`SessionBuilder`](crate::SessionBuilder).
    pub fn builder() -> crate::builder::SessionBuilder {
        crate::builder::SessionBuilder::new()
    }

    /// Whether the config needs the tensor cache: state classes
    /// (gradients, optimizer state) need the tier stack even when the
    /// activation strategy keeps or recomputes — the GreedySnake
    /// configuration offloads *only* state.
    fn wants_cache(&self) -> bool {
        self.strategy.uses_cache() || self.offload.any_state()
    }
}

/// A live training session on one simulated GPU.
///
/// The session owns one autograd [`Graph`] for its lifetime, connected
/// to its GPU once, as the paper's Algorithm 1 configures the tensor
/// cache once before the training loop; every step reuses its tape. The
/// graph is single-threaded, so a session is `!Send`: build it on the
/// thread that trains with it.
pub struct TrainSession {
    cfg: SessionConfig,
    gpu: Gpu,
    graph: Graph,
    model: Model,
    /// The optimizer and its update schedule; the graph holds a clone as
    /// its gradient listener during the step's last backward.
    opt_engine: Arc<OptEngine>,
    /// The step's command stream, built once: the micro-batch count is
    /// fixed for the session's life.
    schedule: Vec<StepCmd>,
    spill_dir: Option<PathBuf>,
    step_idx: u64,
}

/// Maps a scheduler command to the hint the cache understands.
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

/// One simulated GPU: its runtime, its executor and, when its config
/// offloads any class, the tensor cache over the configured tier stack.
/// A [`TrainSession`] runs on one; [`crate::PipelineExec`] builds one
/// per stage.
pub(crate) struct Gpu {
    pub(crate) runtime: GpuRuntime,
    pub(crate) executor: Arc<GpuExecutor>,
    pub(crate) cache: Option<Arc<TensorCache>>,
    pub(crate) faulty: Option<Arc<FaultyTarget>>,
}

impl Gpu {
    /// Builds the GPU `cfg` describes. `ssd` is the SSD array's spill
    /// target, which the `Ssd` and `Tiered` backends offload into:
    /// creating it is the one step that can fail, so it is the caller's,
    /// and a config handed none offloads into host memory as `Dram` does.
    pub(crate) fn new(cfg: &SessionConfig, ssd: Option<Arc<dyn OffloadTarget>>) -> Gpu {
        let runtime = cfg.system.instantiate();
        let executor = Arc::new(GpuExecutor::new(
            runtime.clock.clone(),
            cfg.system.gpu.clone(),
            cfg.system.nvlink_bps,
            cfg.model.tp,
        ));
        if !cfg.wants_cache() {
            return Gpu {
                runtime,
                executor,
                cache: None,
                faulty: None,
            };
        }
        let sys = &cfg.system;
        // An injected fault plan sits between the cache and the *front*
        // tier's device (the one placement hits first).
        let mut faulty = None;
        let mut front = |device: Arc<dyn OffloadTarget>| -> Arc<dyn OffloadTarget> {
            match cfg.fault.clone() {
                Some(plan) => faulty.insert(FaultyTarget::new(device, plan)).clone(),
                None => device,
            }
        };
        // Build the tier stack and the simulated link each tier's
        // transfers are priced on (a tier's link is its index). A
        // single-tier backend's link is named "offload"; host memory
        // offers symmetric bandwidth over the raw PCIe link while the SSD
        // path is capped by the array.
        let (mut tiers, links) = match (cfg.backend, ssd) {
            (OffloadBackend::Ssd, Some(ssd)) => (
                vec![Tier::new("ssd", front(ssd), 0)],
                vec![TierLink::new(
                    "offload",
                    sys.offload_write_bps(),
                    sys.offload_read_bps(),
                )],
            ),
            (OffloadBackend::Tiered { dram_bytes }, Some(ssd)) => (
                vec![
                    Tier::new("dram", front(Arc::new(CpuTarget::new(dram_bytes))), 0)
                        .with_capacity(dram_bytes),
                    Tier::new("ssd", ssd, 1),
                ],
                vec![
                    TierLink::new("dram", sys.host_offload_bps(), sys.host_offload_bps()),
                    TierLink::new("ssd", sys.offload_write_bps(), sys.offload_read_bps()),
                ],
            ),
            // `Dram`, or no SSD to spill into. The paper sizes the pinned
            // pool by profiling; we grant the whole host memory (Figure 2).
            _ => (
                vec![Tier::new(
                    "cpu",
                    front(Arc::new(CpuTarget::new(sys.host_mem_bytes))),
                    0,
                )],
                vec![TierLink::new(
                    "offload",
                    sys.host_offload_bps(),
                    sys.host_offload_bps(),
                )],
            ),
        };
        if cfg.cache.recovery == RecoveryPolicy::FallbackTarget {
            // Spill of last resort: the host pinned pool, reached only by
            // demotion and priced on the front tier's link.
            let pool = Arc::new(CpuTarget::new(sys.host_mem_bytes));
            tiers.push(Tier::new("cpu", pool, 0).demotion_only());
        }
        // Every offload byte crosses the one physical PCIe bus
        // regardless of which tier absorbs it, so store jobs serialise
        // across links instead of draining in parallel — this is what
        // makes the tiered backend's drain land between dram's and
        // ssd's on the step critical path.
        let io = IoEngine::tiered_with_bus(runtime.clock.clone(), links, sys.pcie_bps);
        io.set_store_job_overhead(sys.store_job_overhead_secs);
        if let Some(ft) = &faulty {
            ft.attach_io(io.clone());
            ft.set_trace(cfg.trace.clone());
        }
        let cache = TensorCache::with_tiers(
            cfg.cache.clone(),
            Arc::new(TierStack::new(tiers)),
            io,
            runtime.memory.clone(),
        );
        cache.set_trace(cfg.trace.clone());
        Gpu {
            runtime,
            executor,
            cache: Some(cache),
            faulty,
        }
    }

    /// A graph on this GPU: its executor observes every op and, when
    /// `cfg`'s strategy offloads activations, the cache hooks the saved
    /// tensors and module scopes. A state-only config still owns the
    /// cache, for its gradient and optimizer-state slots, but leaves the
    /// graph unhooked.
    pub(crate) fn graph(&self, cfg: &SessionConfig, device: &Device, seed: u64) -> Graph {
        let graph = Graph::new(device, seed);
        graph.set_observer(self.executor.clone());
        if let Some(cache) = self.cache.as_ref().filter(|_| cfg.strategy.uses_cache()) {
            cache.install(&graph);
        }
        graph
    }

    /// Registers `params` with the cache, which never offloads them.
    pub(crate) fn register_parameters(&self, params: &[Var]) {
        if let Some(cache) = &self.cache {
            for p in params {
                cache.register_parameter(&p.tensor());
            }
        }
    }
}

impl TrainSession {
    /// Builds the session: instantiates runtime, model, optimizer and —
    /// when the session has a cache (see [`TrainSession::cache`]) — the
    /// tensor cache over the configured backend, spilling into an SSD
    /// directory unless the backend is `Dram`.
    ///
    /// # Errors
    /// Returns an error if the spill directory cannot be created.
    pub fn new(cfg: SessionConfig) -> std::io::Result<TrainSession> {
        let device = if cfg.symbolic {
            Device::symbolic()
        } else {
            Device::cpu()
        };
        let spill_dir = (cfg.wants_cache() && cfg.backend != OffloadBackend::Dram)
            .then(|| unique_spill_dir(&cfg.model.tag()));
        let ssd: Option<Arc<dyn OffloadTarget>> = match &spill_dir {
            Some(dir) => {
                let wear = cfg
                    .system
                    .ssd_array
                    .wear_meter(1.0)
                    .with_write_overhead(cfg.system.ssd_write_overhead_bytes);
                Some(Arc::new(SsdTarget::new(dir, wear)?))
            }
            None => None,
        };
        let gpu = Gpu::new(&cfg, ssd);
        device.set_tracker(gpu.runtime.memory.clone());
        let graph = gpu.graph(&cfg, &device, cfg.seed);
        let model = Model::build(&cfg.model, &device, cfg.seed);
        gpu.register_parameters(&model.parameters());
        if cfg.trace.is_enabled() {
            gpu.runtime
                .memory
                .set_peak_observer(MemoryTraceBridge::new(cfg.trace.clone()));
        }
        let optimizer = Sgd::with_momentum(model.parameters(), 0.05, cfg.momentum);
        let opt_engine = Arc::new(OptEngine::new(
            cfg.offload,
            cfg.overlap_optimizer,
            optimizer,
            cfg.model.layers.max(1),
            gpu.cache.as_ref(),
        ));
        let schedule = single_gpu_schedule(cfg.micro_batches.max(1));
        Ok(TrainSession {
            cfg,
            gpu,
            graph,
            model,
            opt_engine,
            schedule,
            spill_dir,
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

    /// The tensor cache, when the session has one: its strategy uses one
    /// (`Offload`, `Hybrid`) or it offloads a state class.
    pub fn cache(&self) -> Option<&Arc<TensorCache>> {
        self.gpu.cache.as_ref()
    }

    /// Firing counters of the injected fault plan (`None` when the
    /// session runs without one).
    pub fn fault_log(&self) -> Option<FaultLog> {
        self.gpu.faulty.as_ref().map(|f| f.fault_log())
    }

    /// The trace sink this session emits into (disabled unless the
    /// config carried an enabled one).
    pub fn trace(&self) -> &TraceSink {
        &self.cfg.trace
    }

    /// Starts a step on a fresh clock, memory and executor, reseeds the
    /// graph's RNG for the step's dropout masks, marks the step's
    /// beginning in the trace and returns its clock.
    fn open_step(&self) -> SimClock {
        let clock = self.gpu.runtime.clock.clone();
        self.gpu.runtime.reset();
        self.gpu.executor.reset();
        let seed = self.cfg.seed ^ (self.step_idx << 17);
        self.graph.set_rng(Prng::seed_from_u64(seed));
        let trace = &self.cfg.trace;
        trace.next_step();
        trace.instant(TraceCategory::Session, "step.begin", clock.now());
        clock
    }

    /// Runs one profiling step on the session's cache and applies the
    /// resulting adaptive plan to subsequent steps (Section 3.3.3). The
    /// plan returned is the one applied: derived after the profiling
    /// backward, so it keeps the modules that backward forwarded whole
    /// (see [`ssdtrain::adaptive`]).
    ///
    /// # Errors
    /// Returns a [`StepError`] if the offload stack reported a failure
    /// recovery could not absorb.
    ///
    /// # Panics
    /// Panics if the session has no cache (see [`TrainSession::cache`]).
    #[expect(clippy::expect_used, reason = "documented contract")]
    pub fn profile_step(&mut self) -> Result<(StepProfile, AdaptivePlan), StepError> {
        let cache = self
            .gpu
            .cache
            .clone()
            .expect("profile_step requires a session with a cache");
        let clock = self.open_step();
        cache.begin_profile_step();
        let g = &self.graph;
        g.set_micro_batch(0);
        g.set_phase(Phase::Forward);
        let batch = self.next_batch(0);
        let loss = self.model.forward_loss(g, &batch, self.recompute_policy());
        cache.prefetch_last_module();
        g.backward(&loss);
        cache.wait_io();
        cache.drain_stores();
        let result = cache.end_profile_step();
        self.opt_engine.plan_changed();
        g.reset_tape();
        cache.flush();
        self.cfg
            .trace
            .instant(TraceCategory::Session, "step.end", clock.now());
        self.opt_engine.zero_grad();
        self.step_idx += 1;
        match cache.take_error() {
            Some(error) => Err(StepError {
                error,
                metrics: None,
            }),
            None => Ok(result),
        }
    }

    /// The layers the model recomputes in backward instead of saving:
    /// all of them under `Recompute`, the first few under `Hybrid`.
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
            self.graph.device(),
        )
    }

    /// Runs one measured training step under the configured strategy and
    /// returns its metrics.
    ///
    /// # Errors
    /// Returns a [`StepError`] when the offload stack reported a
    /// failure recovery could not absorb — a store failure under
    /// [`RecoveryPolicy::FailStep`], or a permanently failed load under
    /// any policy. The degraded step's metrics travel inside the error.
    /// Once the failure is recorded no further weight update is applied
    /// and the step's gradients are cleared, so the training loop can
    /// checkpoint, re-plan or retry the step. Updates the overlapped
    /// optimizer applied inside backward before the failure stay: their
    /// gradients were final.
    pub fn run_step(&mut self) -> Result<StepMetrics, StepError> {
        let clock = self.open_step();
        // The whole measured step as one manually closed span: the end
        // timestamp is simulated time, so RAII cannot close it. Both exits
        // below end it; `OpenSpan`'s `Drop` flags one that did not.
        let step_span = self
            .cfg
            .trace
            .begin_span(TraceCategory::Session, "step", clock.now());
        if let Some(cache) = &self.gpu.cache {
            cache.begin_step();
        }
        let (mut opt_secs, mut opt_exposed_secs) = (0.0, 0.0);
        let g = &self.graph;
        let recompute = self.recompute_policy();
        let mut losses = Vec::new();
        let mut fwd_end = SimTime::ZERO;
        let mut pending_loss = None;

        // Algorithm 1's `deepspeed_exec_schedule`: walk the command
        // stream with one-command lookahead, entering a stage scope
        // around each execution (line 9; the guard's drop is line 15).
        let micro_batches = self.cfg.micro_batches.max(1);
        for (cmd, next) in with_lookahead(&self.schedule) {
            let stage = stage_hint(cmd);
            let stage_start = clock.now();
            let scope = self
                .gpu
                .cache
                .as_ref()
                .map(|cache| cache.stage_scope(stage));
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
                    let loss = self.model.forward_loss(g, &batch, recompute);
                    fwd_end = clock.now();
                    if loss.tensor().has_data() {
                        losses.push(loss.tensor().item());
                    }
                    pending_loss = Some(loss);
                }
                StepCmd::BackwardPass { mb } => {
                    #[expect(
                        clippy::expect_used,
                        reason = "the schedule runs a micro-batch's forward before its backward"
                    )]
                    let loss = pending_loss.take().expect("forward precedes backward");
                    // The last backward of the step finishes every
                    // gradient: listen for each one becoming final, so
                    // its update (or inline, its stash) runs while
                    // backward still computes, and for that backward
                    // only.
                    if mb + 1 == micro_batches {
                        g.set_grad_listener(self.opt_engine.grad_listener());
                    }
                    g.backward(&loss);
                    g.set_grad_listener(None);
                    g.reset_tape();
                }
                StepCmd::StageBoundary => {}
                StepCmd::ReduceGrads => {
                    // Data parallelism degree 1: nothing to reduce. The
                    // in-backward update finishes what backward left
                    // (its wait is exposed); inline, the sweep stashes
                    // the gradients that did not stream. Stores issued
                    // here drain at this stage scope's exit, on the step
                    // that produced them.
                    opt_exposed_secs += self.opt_engine.reduce_grads(&clock, &self.cfg.trace);
                }
                StepCmd::OptimizerStep => {
                    // The inline update runs inside the measured window
                    // (the in-backward one is done by now).
                    opt_secs += self.opt_engine.end_of_step(&clock, &self.cfg.trace);
                }
            }
            match scope {
                Some(scope) => drop(scope), // line 15 + stage span
                None if self.cfg.trace.is_enabled() => self.cfg.trace.span(
                    TraceCategory::Stage,
                    stage.trace_label(),
                    stage_start,
                    clock.now(),
                ),
                None => {}
            }
        }

        if let Some(cache) = &self.gpu.cache {
            cache.flush();
        }
        let step_secs = clock.now().as_secs();
        let memory = self.gpu.runtime.memory.step_memory();
        // Strictly-before: the first backward node's frees are stamped at
        // exactly the forward-end instant (the clock advances only after
        // its kernel) and must not be counted into the forward level.
        let act_at_bwd_start = memory
            .timeline
            .iter()
            .take_while(|p| p.time < fwd_end)
            .last()
            .map(|p| p.activations)
            .unwrap_or(0);
        let offload = self
            .gpu
            .cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default();
        let ssd_host_writes = self
            .gpu
            .cache
            .as_ref()
            .map(|c| c.io().bytes_written())
            .unwrap_or(0);
        let metrics = StepMetrics {
            batch: self.cfg.batch_size,
            step_secs,
            fwd_secs: self.gpu.executor.phase_secs(Phase::Forward),
            act_peak_bytes: memory.peak_activations,
            total_peak_bytes: memory.peak_total,
            act_at_bwd_start,
            timeline: memory.timeline,
            offload,
            model_flops: self.gpu.executor.model_flops(),
            comm_secs: self.gpu.executor.comm_secs(),
            ssd_host_writes,
            alloc: memory.alloc,
            oom: memory.oom,
            loss: losses.iter().copied().sum::<f32>() / losses.len().max(1) as f32,
            opt_secs,
            opt_exposed_secs,
        };
        if self.cfg.trace.is_enabled() {
            self.cfg.trace.instant_with(
                TraceCategory::Session,
                "step.end",
                clock.now(),
                vec![("secs", ArgValue::F64(step_secs))],
            );
        }
        if let Some(error) = self.gpu.cache.as_ref().and_then(|c| c.take_error()) {
            // The step is tainted: no update ran after the failure was
            // recorded. Drop what the engine still holds, clear the
            // accumulated gradients and hand the degraded metrics to
            // the caller inside the error.
            self.opt_engine.abort();
            self.opt_engine.zero_grad();
            self.step_idx += 1;
            step_span.end(clock.now());
            return Err(StepError {
                error,
                metrics: Some(Box::new(metrics)),
            });
        }
        self.step_idx += 1;
        step_span.end(clock.now());
        Ok(metrics)
    }
}

impl Drop for TrainSession {
    fn drop(&mut self) {
        if let Some(dir) = &self.spill_dir {
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
