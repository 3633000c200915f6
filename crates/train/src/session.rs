//! A training session: model + simulated hardware + placement strategy.

use crate::error::StepError;
use crate::executor::GpuExecutor;
use crate::metrics::StepMetrics;
use crate::opt_engine::OptEngine;
use crate::schedule::{stage_schedule, StepCmd, StepRunner};
use ssdtrain::{
    AdaptivePlan, ArgValue, CpuTarget, FaultyTarget, IoEngine, MemoryTraceBridge, OffloadClass,
    OffloadTarget, PlacementStrategy, RecoveryPolicy, SsdTarget, StepProfile, TensorCache,
    TensorCacheConfig, Tier, TierLink, TierStack, TraceCategory, TraceSink,
};
use ssdtrain_autograd::optim::Sgd;
use ssdtrain_autograd::{Graph, Phase, Var};
use ssdtrain_models::{Batch, Model, ModelConfig, Recompute};
use ssdtrain_simhw::system::GpuRuntime;
use ssdtrain_simhw::{FaultLog, FaultPlan, SimClock, SimTime, SystemConfig};
use ssdtrain_tensor::{Device, Prng};
use std::convert::Infallible;
use std::ops::Range;
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
        OffloadClassSet {
            enabled: [true, false, false],
        }
    }
}

impl OffloadClassSet {
    /// Returns the set with `class` switched to `enabled`.
    pub(crate) fn with(mut self, class: OffloadClass, enabled: bool) -> OffloadClassSet {
        self.enabled[class.index()] = enabled;
        self
    }

    /// Whether `class` is selected for offloading.
    pub fn contains(&self, class: OffloadClass) -> bool {
        self.enabled[class.index()]
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
    pub(crate) system: SystemConfig,
    /// The model (its `tp` should match the machine's GPU count for the
    /// paper's tensor-parallel setup).
    pub(crate) model: ModelConfig,
    /// Global batch size in sequences.
    pub(crate) batch_size: usize,
    /// Micro-batches per step (gradient accumulation; the paper's
    /// single-node experiments use 1).
    pub(crate) micro_batches: usize,
    /// Activation placement strategy (the ROK corner to run).
    pub strategy: PlacementStrategy,
    /// Tensor-cache tunables, used when the session has a cache: its
    /// strategy uses one (`Offload`, `Hybrid`) or it offloads a state
    /// class.
    pub cache: TensorCacheConfig,
    /// Shape-only execution (paper-scale runs).
    pub(crate) symbolic: bool,
    /// Seed for weights, data and dropout.
    pub(crate) seed: u64,
    /// The offload backend: tier stack plus the links its transfers are
    /// priced on (single SSD tier by default).
    pub(crate) backend: OffloadBackend,
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
    pub(crate) momentum: f32,
    /// Deterministic fault schedule injected between the cache and the
    /// offload target (`None` for a healthy device). Recovery follows
    /// `cache.recovery`.
    pub(crate) fault: Option<FaultPlan>,
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
        let state = [OffloadClass::Gradient, OffloadClass::OptimizerState];
        self.strategy.uses_cache() || state.into_iter().any(|c| self.offload.contains(c))
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
    model: Model,
    /// The measured step's commands in the session's graph, updating
    /// through its optimizer engine.
    steps: StepRunner,
    /// The profiling step's: micro-batch 0's four, with no update.
    profile: StepRunner,
    spill_dir: Option<PathBuf>,
    step_idx: u64,
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

/// One simulated GPU: its device (its ledger counts every tensor built
/// on it), runtime, executor and, when its config offloads any class,
/// the tensor cache over the configured tier stack. A [`TrainSession`]
/// runs on one; [`crate::PipelineExec`] builds one per stage.
pub(crate) struct Gpu {
    pub(crate) device: Device,
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
        let device = if cfg.symbolic {
            Device::symbolic()
        } else {
            Device::cpu()
        };
        let runtime = cfg.system.instantiate();
        device.set_tracker(runtime.memory.clone());
        let executor = Arc::new(GpuExecutor::new(
            runtime.clock.clone(),
            cfg.system.gpu.clone(),
            cfg.system.nvlink_bps,
            cfg.model.tp,
        ));
        let mut gpu = Gpu {
            device,
            runtime,
            executor,
            cache: None,
            faulty: None,
        };
        if !cfg.wants_cache() {
            return gpu;
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
        // path is capped by the array. The paper sizes the host's pinned
        // pool by profiling; we grant the whole host memory (Figure 2).
        let ssd_link = |name| TierLink::new(name, sys.offload_write_bps(), sys.offload_read_bps());
        let host_link = |name| TierLink::new(name, sys.host_offload_bps(), sys.host_offload_bps());
        let host_pool = || Arc::new(CpuTarget::new(sys.host_mem_bytes));
        let (mut tiers, links) = match (cfg.backend, ssd) {
            (OffloadBackend::Ssd, Some(ssd)) => (
                vec![Tier::new("ssd", front(ssd), 0)],
                vec![ssd_link("offload")],
            ),
            (OffloadBackend::Tiered { dram_bytes }, Some(ssd)) => (
                vec![
                    Tier::new("dram", front(Arc::new(CpuTarget::new(dram_bytes))), 0)
                        .with_capacity(dram_bytes),
                    Tier::new("ssd", ssd, 1),
                ],
                vec![host_link("dram"), ssd_link("ssd")],
            ),
            // `Dram`, or no SSD to spill into.
            _ => (
                vec![Tier::new("cpu", front(host_pool()), 0)],
                vec![host_link("offload")],
            ),
        };
        if cfg.cache.recovery == RecoveryPolicy::FallbackTarget {
            // Spill of last resort: the host pinned pool, reached only by
            // demotion and priced on the front tier's link.
            tiers.push(Tier::new("cpu", host_pool(), 0).demotion_only());
        }
        // Every offload byte crosses the one physical PCIe bus
        // regardless of which tier absorbs it, so store jobs serialise
        // across links instead of draining in parallel — this is what
        // makes the tiered backend's drain land between dram's and
        // ssd's on the step critical path.
        let io = IoEngine::tiered_with_bus(gpu.runtime.clock.clone(), links, sys.pcie_bps);
        io.set_store_job_overhead(sys.store_job_overhead_secs);
        if let Some(ft) = &faulty {
            ft.attach_io(io.clone());
            ft.set_trace(cfg.trace.clone());
        }
        let cache = TensorCache::with_tiers(
            cfg.cache.clone(),
            Arc::new(TierStack::new(tiers)),
            io,
            gpu.runtime.memory.clone(),
        );
        cache.set_trace(cfg.trace.clone());
        (gpu.cache, gpu.faulty) = (Some(cache), faulty);
        gpu
    }

    /// The runner of `cmds` in a graph seeded by `seed`, observed by the
    /// executor and, when `cfg`'s strategy offloads activations, hooked
    /// by the cache. It updates `params`, the parameters this GPU holds
    /// (registered with the cache, which never offloads them), by
    /// `cfg`'s SGD in one inline job per number in `jobs`, its span's.
    pub(crate) fn runner(
        &self,
        cfg: &SessionConfig,
        seed: u64,
        params: Vec<Var>,
        jobs: Range<usize>,
        cmds: Vec<StepCmd>,
    ) -> StepRunner {
        let graph = Graph::new(&self.device, seed);
        graph.set_observer(self.executor.clone());
        if let Some(cache) = self.cache.as_ref().filter(|_| cfg.strategy.uses_cache()) {
            cache.install(&graph);
        }
        if let Some(cache) = &self.cache {
            params
                .iter()
                .for_each(|p| cache.register_parameter(&p.tensor()));
        }
        let opt = Sgd::with_momentum(params, 0.05, cfg.momentum);
        let (classes, overlap) = (cfg.offload, cfg.overlap_optimizer);
        let opt = OptEngine::new(classes, overlap, opt, jobs, self.cache.as_ref());
        StepRunner::new(cmds, graph, Arc::new(opt))
    }

    /// Starts a step on a fresh clock, memory log and executor totals.
    pub(crate) fn open_step(&self) {
        self.runtime.reset();
        self.executor.reset();
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
        let model = Model::build(&cfg.model, &gpu.device, cfg.seed);
        let schedule = stage_schedule(1, 0, cfg.micro_batches);
        let first = schedule[..4].to_vec();
        let (params, jobs) = (model.parameters(), 0..cfg.model.layers);
        let steps = gpu.runner(&cfg, cfg.seed, params, jobs, schedule);
        let profile = StepRunner::new(first, steps.graph.clone(), steps.opt.clone());
        // Traced from here, so the trace's first memory peak is a step's.
        if cfg.trace.is_enabled() {
            gpu.runtime
                .memory
                .set_peak_observer(MemoryTraceBridge::new(cfg.trace.clone()));
        }
        Ok(TrainSession {
            steps,
            profile,
            cfg,
            gpu,
            model,
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
        self.gpu.open_step();
        let clock = self.gpu.runtime.clock.clone();
        let seed = self.cfg.seed ^ (self.step_idx << 17);
        self.steps.graph.set_rng(Prng::seed_from_u64(seed));
        let trace = &self.cfg.trace;
        trace.next_step();
        trace.instant(TraceCategory::Session, "step.begin", clock.now());
        clock
    }

    /// Runs one profiling step on the session's cache and applies the
    /// resulting adaptive plan to subsequent steps (Section 3.3.3). The
    /// plan returned is the one applied: derived after the profiling
    /// backward, so each module's deadline is when that backward reached
    /// it, and it keeps the modules whose stores were all still queued
    /// when forward ended (see [`ssdtrain::adaptive`]).
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
        let (g, batch) = (&self.steps.graph, self.next_batch(0));
        let mut loss = None;
        let until = StepCmd::BackwardPass { mb: 0 };
        let Ok(_) = self.profile.run(&self.gpu, &self.cfg.trace, until, |cmd| {
            if let StepCmd::ForwardPass { .. } = cmd {
                loss = Some(self.model.forward_loss(g, &batch, self.recompute_policy()));
            } else if let Some(loss) = loss.take() {
                g.backward(&loss);
            }
            Ok::<_, Infallible>(())
        });
        let result = cache.end_profile_step();
        self.steps.opt.plan_changed();
        cache.flush();
        self.cfg
            .trace
            .instant(TraceCategory::Session, "step.end", clock.now());
        self.steps.opt.zero_grad();
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
            &self.gpu.device,
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
        let g = &self.steps.graph;
        let recompute = self.recompute_policy();
        let mut losses = Vec::new();
        let mut fwd_end = SimTime::ZERO;
        let mut pending_loss = None;
        // Algorithm 1's `deepspeed_exec_schedule`, each command inside
        // its stage scope.
        let until = StepCmd::OptimizerStep;
        let run = self.steps.run(&self.gpu, &self.cfg.trace, until, |cmd| {
            match cmd {
                StepCmd::ForwardPass { mb } => {
                    let batch = self.next_batch(mb);
                    let loss = self.model.forward_loss(g, &batch, recompute);
                    fwd_end = clock.now();
                    if loss.tensor().has_data() {
                        losses.push(loss.tensor().item());
                    }
                    pending_loss = Some(loss);
                }
                _ => {
                    #[expect(
                        clippy::expect_used,
                        reason = "the schedule runs a micro-batch's forward before its backward"
                    )]
                    let loss = pending_loss.take().expect("forward precedes backward");
                    g.backward(&loss);
                }
            }
            Ok::<_, Infallible>(())
        });
        let Ok((opt_secs, opt_exposed_secs)) = run;
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
        let cache = self.gpu.cache.as_deref();
        let offload = cache.map(|c| c.stats()).unwrap_or_default();
        let ssd_host_writes = cache.map_or(0, |c| c.io().bytes_written());
        let metrics = StepMetrics {
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
        let error = cache.and_then(|c| c.take_error());
        if error.is_some() {
            // The step is tainted: no update ran after the failure was
            // recorded. Drop what the engine still holds, clear the
            // accumulated gradients and hand the degraded metrics to
            // the caller inside the error.
            self.steps.opt.abort();
            self.steps.opt.zero_grad();
        }
        self.step_idx += 1;
        step_span.end(clock.now());
        match error {
            Some(error) => Err(StepError {
                error,
                metrics: Some(Box::new(metrics)),
            }),
            None => Ok(metrics),
        }
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
