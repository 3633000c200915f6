//! [`SessionBuilder`] — the validated way to construct a
//! [`SessionConfig`].
//!
//! Struct-literal construction cannot reject nonsense (a tensor-parallel
//! degree wider than the machine, a batch that does not divide into its
//! micro-batches, a tiered backend with no DRAM tier), so the builder funnels every configuration through
//! [`SessionBuilder::build`] and returns a typed [`ConfigError`] instead
//! of failing deep inside a step.

use crate::session::{OffloadBackend, OffloadClassSet, SessionConfig};
use ssdtrain::{OffloadClass, PlacementStrategy, RecoveryPolicy, TensorCacheConfig};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_simhw::{FaultPlan, SystemConfig};
use ssdtrain_trace::TraceSink;
use std::fmt;

/// A configuration the builder refused to produce.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The model's tensor-parallel degree exceeds the machine's GPUs.
    TensorParallelMismatch {
        /// Requested tensor-parallel degree.
        tp: usize,
        /// GPUs the configured system actually has.
        gpus: usize,
    },
    /// The global batch size is zero.
    ZeroBatch,
    /// The micro-batch count is zero.
    ZeroMicroBatches,
    /// The global batch does not split evenly over the micro-batches.
    IndivisibleMicroBatches {
        /// Global batch size in sequences.
        batch_size: usize,
        /// Micro-batches per step.
        micro_batches: usize,
    },
    /// The pipeline was asked for zero stages.
    ZeroStages,
    /// More pipeline stages than the model has layers to split.
    StagesExceedLayers {
        /// Requested pipeline stages.
        pp: usize,
        /// Layers the model actually has.
        layers: usize,
    },
    /// The architecture is not supported by the requested execution
    /// mode (e.g. T5's cross-attention broadcasts the encoder output to
    /// every decoder stage, which the functional pipeline cannot split).
    UnsupportedArch {
        /// The rejected architecture.
        arch: Arch,
    },
    /// A tiered backend named a zero-byte front tier, which could never
    /// hold an activation and would silently behave like the plain SSD
    /// backend.
    ZeroTierCapacity,
    /// The `OptimizerState` class was selected, but the optimizer is
    /// stateless (`momentum == 0`) — there would be nothing to offload,
    /// and the configuration almost certainly meant to set a momentum.
    StatelessOptimizerOffload,
    /// The `Activation` class was switched off while the placement
    /// strategy offloads activations — contradictory; pick a keep or
    /// recompute strategy instead.
    ActivationClassRequired,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TensorParallelMismatch { tp, gpus } => write!(
                f,
                "tensor-parallel degree {tp} exceeds the system's {gpus} GPU(s)"
            ),
            ConfigError::ZeroBatch => write!(f, "batch_size must be at least 1"),
            ConfigError::ZeroMicroBatches => write!(f, "micro_batches must be at least 1"),
            ConfigError::IndivisibleMicroBatches {
                batch_size,
                micro_batches,
            } => write!(
                f,
                "batch_size {batch_size} does not divide into {micro_batches} micro-batches"
            ),
            ConfigError::ZeroStages => write!(f, "the pipeline needs at least one stage"),
            ConfigError::StagesExceedLayers { pp, layers } => {
                write!(f, "more pipeline stages than layers ({pp} > {layers})")
            }
            ConfigError::ZeroTierCapacity => {
                write!(f, "a tiered backend needs a non-zero DRAM tier capacity")
            }
            ConfigError::StatelessOptimizerOffload => write!(
                f,
                "offloading optimizer state requires a stateful optimizer; set a \
                 non-zero momentum"
            ),
            ConfigError::ActivationClassRequired => write!(
                f,
                "the activation class cannot be disabled while the placement strategy \
                 offloads activations; use a keep or recompute strategy"
            ),
            ConfigError::UnsupportedArch { arch } => write!(
                f,
                "{arch:?} is not supported here: T5's cross-attention broadcasts the \
                 encoder output to every decoder stage; the functional pipeline trainer \
                 supports GPT and BERT"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fluent, validated construction of a [`SessionConfig`].
///
/// Defaults reproduce the paper's single-node testbed: Table 3's
/// machine, a tiny GPT, one micro-batch, the offload strategy over the
/// SSD target, no faults and tracing disabled.
///
/// ```
/// use ssdtrain_train::{SessionConfig, TrainSession};
///
/// let cfg = SessionConfig::builder()
///     .batch_size(2)
///     .seed(7)
///     .build()
///     .expect("valid config");
/// let mut session = TrainSession::new(cfg).expect("session");
/// assert!(session.run_step().expect("healthy device").step_secs > 0.0);
/// ```
///
/// Invalid combinations surface as typed errors instead of panics:
///
/// ```
/// use ssdtrain_train::{ConfigError, SessionConfig};
///
/// let err = SessionConfig::builder()
///     .batch_size(3)
///     .micro_batches(2)
///     .build()
///     .unwrap_err();
/// assert_eq!(
///     err,
///     ConfigError::IndivisibleMicroBatches { batch_size: 3, micro_batches: 2 }
/// );
/// ```
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain the SessionConfig"]
pub struct SessionBuilder {
    cfg: SessionConfig,
}

impl Default for SessionBuilder {
    fn default() -> SessionBuilder {
        SessionBuilder {
            cfg: SessionConfig {
                system: SystemConfig::dac_testbed(),
                model: ModelConfig::tiny_gpt(),
                batch_size: 1,
                micro_batches: 1,
                strategy: PlacementStrategy::Offload,
                cache: TensorCacheConfig::default(),
                symbolic: false,
                seed: 0,
                backend: OffloadBackend::default(),
                offload: OffloadClassSet::default(),
                overlap_optimizer: false,
                momentum: 0.0,
                fault: None,
                trace: TraceSink::disabled(),
            },
        }
    }
}

impl SessionBuilder {
    /// Starts from the defaults described on the type.
    pub fn new() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The machine to simulate.
    pub fn system(mut self, system: SystemConfig) -> SessionBuilder {
        self.cfg.system = system;
        self
    }

    /// The model to train.
    pub fn model(mut self, model: ModelConfig) -> SessionBuilder {
        self.cfg.model = model;
        self
    }

    /// Global batch size in sequences.
    pub fn batch_size(mut self, batch_size: usize) -> SessionBuilder {
        self.cfg.batch_size = batch_size;
        self
    }

    /// Micro-batches per step (gradient accumulation).
    pub fn micro_batches(mut self, micro_batches: usize) -> SessionBuilder {
        self.cfg.micro_batches = micro_batches;
        self
    }

    /// Activation placement strategy (the ROK corner to run).
    pub fn strategy(mut self, strategy: PlacementStrategy) -> SessionBuilder {
        self.cfg.strategy = strategy;
        self
    }

    /// Tensor-cache tunables, used when the session has a cache: its
    /// strategy uses one (`Offload`, `Hybrid`) or it offloads a state
    /// class. Replaces whatever a cache shorthand set before it.
    pub fn cache(mut self, cache: TensorCacheConfig) -> SessionBuilder {
        self.cfg.cache = cache;
        self
    }

    /// Recovery policy shorthand: rewrites `cache.recovery` in place.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> SessionBuilder {
        self.cfg.cache.recovery = recovery;
        self
    }

    /// Write-coalescing segment size shorthand: rewrites
    /// `cache.coalesce_segment_bytes` in place. Zero (the default)
    /// keeps the per-tensor store path; a positive value batches
    /// forward-pass stores into sequential segments of roughly this
    /// many bytes before they hit the tier queues.
    pub fn coalesce_segment(mut self, bytes: u64) -> SessionBuilder {
        self.cfg.cache.coalesce_segment_bytes = bytes;
        self
    }

    /// Group-prefetch shorthand: rewrites
    /// `cache.prefetch_group_modules` in place. Zero (the default)
    /// keeps per-module prefetch; a positive value reloads backward
    /// activations in groups of this many modules, from the moment
    /// backward is announced and as far ahead of consumption as the
    /// memory backward hands back allows (never fewer than
    /// `prefetch_depth` groups).
    pub fn prefetch_group(mut self, modules: usize) -> SessionBuilder {
        self.cfg.cache.prefetch_group_modules = modules;
        self
    }

    /// Prefetch lookahead shorthand: rewrites `cache.prefetch_depth`
    /// in place: modules ahead on the per-module path; on the grouped
    /// path the floor of the look-ahead, the groups kept in flight
    /// whatever the memory level. `0` turns prefetching off.
    pub fn prefetch_depth(mut self, depth: usize) -> SessionBuilder {
        self.cfg.cache.prefetch_depth = depth;
        self
    }

    /// Shape-only execution (paper-scale runs).
    pub fn symbolic(mut self, symbolic: bool) -> SessionBuilder {
        self.cfg.symbolic = symbolic;
        self
    }

    /// Seed for weights, data and dropout.
    pub fn seed(mut self, seed: u64) -> SessionBuilder {
        self.cfg.seed = seed;
        self
    }

    /// The offload backend: one of the single-tier devices
    /// ([`OffloadBackend::Ssd`], [`OffloadBackend::Dram`]) or the tiered
    /// DRAM-then-SSD stack.
    pub fn backend(mut self, backend: OffloadBackend) -> SessionBuilder {
        self.cfg.backend = backend;
        self
    }

    /// Selects which tensor class rides the tier stack: activations (on
    /// by default), gradients, optimizer state. State classes work under
    /// any activation strategy; `OptimizerState` additionally needs a
    /// stateful optimizer (see [`momentum`]).
    ///
    /// ```
    /// use ssdtrain_train::prelude::*;
    ///
    /// let cfg = SessionConfig::builder()
    ///     .offload(OffloadClass::Gradient, true)
    ///     .offload(OffloadClass::OptimizerState, true)
    ///     .momentum(0.9)
    ///     .build()
    ///     .expect("valid config");
    /// assert!(cfg.offload.contains(OffloadClass::OptimizerState));
    /// ```
    ///
    /// [`momentum`]: SessionBuilder::momentum
    pub fn offload(mut self, class: OffloadClass, enabled: bool) -> SessionBuilder {
        self.cfg.offload = self.cfg.offload.with(class, enabled);
        self
    }

    /// Updates each parameter inside the step's last backward pass, the
    /// moment autograd finalises its gradient, so its state loads and
    /// write-backs overlap backward's compute (PyTorch's
    /// optimizer-in-backward pattern). Off by default: the per-stage jobs
    /// then run inline at the `OptimizerStep` stage. Either way the
    /// update runs inside the measured step, and costs 0 simulated
    /// seconds when no state class is offloaded.
    pub fn overlap_optimizer(mut self, overlap: bool) -> SessionBuilder {
        self.cfg.overlap_optimizer = overlap;
        self
    }

    /// SGD momentum. Zero (the default) keeps the paper's stateless
    /// optimizer; a positive value allocates per-parameter velocity —
    /// the state the `OptimizerState` class moves through the tiers.
    pub fn momentum(mut self, momentum: f32) -> SessionBuilder {
        self.cfg.momentum = momentum;
        self
    }

    /// Injects a deterministic fault schedule between the cache and the
    /// offload target.
    pub fn fault(mut self, plan: FaultPlan) -> SessionBuilder {
        self.cfg.fault = Some(plan);
        self
    }

    /// Routes the session's tensor-lifecycle events into `sink`.
    pub fn trace(mut self, sink: TraceSink) -> SessionBuilder {
        self.cfg.trace = sink;
        self
    }

    /// Validates the accumulated settings.
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] the settings violate.
    pub fn build(self) -> Result<SessionConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.batch_size == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if cfg.micro_batches == 0 {
            return Err(ConfigError::ZeroMicroBatches);
        }
        if !cfg.batch_size.is_multiple_of(cfg.micro_batches) {
            return Err(ConfigError::IndivisibleMicroBatches {
                batch_size: cfg.batch_size,
                micro_batches: cfg.micro_batches,
            });
        }
        if cfg.model.tp > cfg.system.gpus {
            return Err(ConfigError::TensorParallelMismatch {
                tp: cfg.model.tp,
                gpus: cfg.system.gpus,
            });
        }
        if cfg.backend == (OffloadBackend::Tiered { dram_bytes: 0 }) {
            return Err(ConfigError::ZeroTierCapacity);
        }
        if cfg.offload.contains(OffloadClass::OptimizerState) && cfg.momentum <= 0.0 {
            return Err(ConfigError::StatelessOptimizerOffload);
        }
        if !cfg.offload.contains(OffloadClass::Activation) && cfg.strategy.uses_cache() {
            return Err(ConfigError::ActivationClassRequired);
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain_simhw::{FaultKind, FaultTrigger, SimTime};
    use ssdtrain_trace::TraceCategory;

    #[test]
    fn defaults_build_cleanly() {
        let cfg = SessionConfig::builder().build().expect("defaults valid");
        assert_eq!(cfg.batch_size, 1);
        assert_eq!(cfg.micro_batches, 1);
        assert_eq!(cfg.backend, OffloadBackend::Ssd);
        assert!(cfg.fault.is_none());
        assert!(!cfg.trace.is_enabled());
    }

    #[test]
    fn every_setting_reaches_the_config() {
        let mut system = SystemConfig::dac_testbed();
        system.pcie_bps *= 2.0;
        let mut model = ModelConfig::tiny_gpt();
        model.layers += 1;
        let cache = TensorCacheConfig {
            dedup: false,
            ..TensorCacheConfig::default()
        };
        let plan =
            FaultPlan::new(3).with_fault(FaultTrigger::NthOp { nth: 1 }, FaultKind::WriteError);
        let sink = TraceSink::enabled();
        let tiered = OffloadBackend::Tiered {
            dram_bytes: 1 << 30,
        };
        let cfg = SessionConfig::builder()
            .system(system.clone())
            .model(model.clone())
            .batch_size(4)
            .micro_batches(2)
            .strategy(PlacementStrategy::Hybrid {
                recompute_layers: 1,
            })
            .cache(cache.clone())
            .recovery(RecoveryPolicy::FallbackTarget)
            .coalesce_segment(1 << 20)
            .prefetch_group(2)
            .prefetch_depth(3)
            .symbolic(true)
            .seed(9)
            .backend(tiered)
            .offload(OffloadClass::OptimizerState, true)
            .overlap_optimizer(true)
            .momentum(0.5)
            .fault(plan.clone())
            .trace(sink.clone())
            .build()
            .expect("valid");
        assert_eq!(cfg.system, system);
        assert_eq!(cfg.model, model);
        assert_eq!((cfg.batch_size, cfg.micro_batches), (4, 2));
        assert_eq!(
            cfg.strategy,
            PlacementStrategy::Hybrid {
                recompute_layers: 1
            }
        );
        assert!(!cfg.cache.dedup);
        assert_eq!(cfg.cache.recovery, RecoveryPolicy::FallbackTarget);
        assert_eq!(cfg.cache.coalesce_segment_bytes, 1 << 20);
        assert_eq!(cfg.cache.prefetch_group_modules, 2);
        assert_eq!(cfg.cache.prefetch_depth, 3);
        assert!(cfg.symbolic);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.backend, tiered);
        assert_eq!(
            cfg.offload,
            OffloadClassSet::default().with(OffloadClass::OptimizerState, true)
        );
        assert!(cfg.overlap_optimizer);
        assert_eq!(cfg.momentum, 0.5);
        assert_eq!(cfg.fault, Some(plan));
        // The sink is shared, not copied: an event sent through the
        // config's reaches the one handed to the builder.
        cfg.trace
            .instant(TraceCategory::Session, "probe", SimTime::ZERO);
        assert_eq!(sink.events().len(), 1);

        // `.cache(c)` replaces what a shorthand set before it.
        let cfg = SessionConfig::builder()
            .prefetch_group(2)
            .cache(cache.clone())
            .build()
            .expect("valid");
        assert_eq!(cfg.cache, cache);
    }

    #[test]
    fn offload_classes_accumulate_fluently() {
        let cfg = SessionConfig::builder()
            .offload(OffloadClass::Gradient, true)
            .offload(OffloadClass::OptimizerState, true)
            .momentum(0.9)
            .overlap_optimizer(true)
            .build()
            .expect("valid");
        let classes = [
            OffloadClass::Activation,
            OffloadClass::Gradient,
            OffloadClass::OptimizerState,
        ];
        assert!(classes.into_iter().all(|c| cfg.offload.contains(c)));
        assert!(cfg.overlap_optimizer);
        assert_eq!(cfg.momentum, 0.9);
        // Default: activations only, no overlap, stateless SGD.
        let cfg = SessionConfig::builder().build().expect("valid");
        assert_eq!(cfg.offload, OffloadClassSet::default());
        assert!(!cfg.overlap_optimizer);
        assert_eq!(cfg.momentum, 0.0);
    }

    #[test]
    fn io_pipeline_knobs_flow_into_the_config() {
        let cfg = SessionConfig::builder()
            .coalesce_segment(64 << 20)
            .prefetch_group(2)
            .prefetch_depth(3)
            .build()
            .expect("valid");
        assert_eq!(cfg.cache.coalesce_segment_bytes, 64 << 20);
        assert_eq!(cfg.cache.prefetch_group_modules, 2);
        assert_eq!(cfg.cache.prefetch_depth, 3);
        // Defaults keep the per-tensor path.
        let cfg = SessionConfig::builder().build().expect("valid");
        assert_eq!(cfg.cache.coalesce_segment_bytes, 0);
        assert_eq!(cfg.cache.prefetch_group_modules, 0);
        assert_eq!(cfg.system.store_job_overhead_secs, 0.0);
        assert_eq!(cfg.system.ssd_write_overhead_bytes, 0);
    }

    #[test]
    fn optimizer_state_offload_needs_a_stateful_optimizer() {
        let err = SessionConfig::builder()
            .offload(OffloadClass::OptimizerState, true)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::StatelessOptimizerOffload);
        assert!(err.to_string().contains("momentum"), "{err}");
        SessionConfig::builder()
            .offload(OffloadClass::OptimizerState, true)
            .momentum(0.5)
            .build()
            .expect("momentum makes it stateful");
    }

    #[test]
    fn disabling_activations_under_an_offload_strategy_is_rejected() {
        let err = SessionConfig::builder()
            .offload(OffloadClass::Activation, false)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ActivationClassRequired);
        // The GreedySnake corner: keep activations on GPU, move only
        // the gradients through the tiers.
        let cfg = SessionConfig::builder()
            .strategy(PlacementStrategy::Keep)
            .offload(OffloadClass::Activation, false)
            .offload(OffloadClass::Gradient, true)
            .build()
            .expect("state-only offload is a valid configuration");
        assert!(cfg.offload.contains(OffloadClass::Gradient));
        assert!(!cfg.offload.contains(OffloadClass::Activation));
    }

    #[test]
    fn zero_capacity_front_tier_is_rejected() {
        let err = SessionConfig::builder()
            .backend(OffloadBackend::Tiered { dram_bytes: 0 })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroTierCapacity);
        assert!(err.to_string().contains("DRAM"), "{err}");

        SessionConfig::builder()
            .backend(OffloadBackend::Tiered {
                dram_bytes: 1 << 20,
            })
            .build()
            .expect("non-zero capacity builds");
    }

    #[test]
    fn zero_sizes_are_rejected() {
        assert_eq!(
            SessionConfig::builder().batch_size(0).build().unwrap_err(),
            ConfigError::ZeroBatch
        );
        assert_eq!(
            SessionConfig::builder()
                .batch_size(2)
                .micro_batches(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroMicroBatches
        );
    }

    #[test]
    fn indivisible_micro_batches_are_rejected() {
        let err = SessionConfig::builder()
            .batch_size(5)
            .micro_batches(2)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::IndivisibleMicroBatches {
                batch_size: 5,
                micro_batches: 2
            }
        );
        assert!(err.to_string().contains("5"), "{err}");
    }

    #[test]
    fn tensor_parallel_wider_than_the_machine_is_rejected() {
        let gpus = SystemConfig::dac_testbed().gpus;
        // Set the degree directly: `with_tp` would reject the odd width
        // for its own (orthogonal) divisibility reasons.
        let mut model = ModelConfig::tiny_gpt();
        model.tp = gpus + 1;
        let err = SessionConfig::builder().model(model).build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::TensorParallelMismatch { tp: gpus + 1, gpus }
        );
    }
}
