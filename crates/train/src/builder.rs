//! [`SessionBuilder`] — the validated way to construct a
//! [`SessionConfig`].
//!
//! Struct-literal construction cannot reject nonsense (a tensor-parallel
//! degree wider than the machine, a batch that does not divide into its
//! micro-batches, a fallback target without the policy that would ever
//! use it), so the builder funnels every configuration through
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
    /// A fallback target was named, but the recovery policy is not
    /// [`RecoveryPolicy::FallbackTarget`], so it could never be used.
    FallbackWithoutPolicy,
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
    /// The spill-of-last-resort fallback must be a single device; the
    /// tiered backend is itself a spill chain and cannot back one.
    TieredFallback,
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
            ConfigError::FallbackWithoutPolicy => write!(
                f,
                "a fallback target requires RecoveryPolicy::FallbackTarget"
            ),
            ConfigError::ZeroStages => write!(f, "the pipeline needs at least one stage"),
            ConfigError::StagesExceedLayers { pp, layers } => {
                write!(f, "more pipeline stages than layers ({pp} > {layers})")
            }
            ConfigError::ZeroTierCapacity => {
                write!(f, "a tiered backend needs a non-zero DRAM tier capacity")
            }
            ConfigError::TieredFallback => write!(
                f,
                "the fallback must be a single device (ssd or dram), not the tiered stack"
            ),
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
    system: SystemConfig,
    model: ModelConfig,
    batch_size: usize,
    micro_batches: usize,
    strategy: PlacementStrategy,
    cache: TensorCacheConfig,
    symbolic: bool,
    seed: u64,
    backend: OffloadBackend,
    offload: OffloadClassSet,
    overlap_optimizer: bool,
    momentum: f32,
    fault: Option<FaultPlan>,
    fallback: Option<OffloadBackend>,
    trace: TraceSink,
}

impl Default for SessionBuilder {
    fn default() -> SessionBuilder {
        SessionBuilder {
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
            fallback: None,
            trace: TraceSink::disabled(),
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
        self.system = system;
        self
    }

    /// The model to train.
    pub fn model(mut self, model: ModelConfig) -> SessionBuilder {
        self.model = model;
        self
    }

    /// Global batch size in sequences.
    pub fn batch_size(mut self, batch_size: usize) -> SessionBuilder {
        self.batch_size = batch_size;
        self
    }

    /// Micro-batches per step (gradient accumulation).
    pub fn micro_batches(mut self, micro_batches: usize) -> SessionBuilder {
        self.micro_batches = micro_batches;
        self
    }

    /// Activation placement strategy (the ROK corner to run).
    pub fn strategy(mut self, strategy: PlacementStrategy) -> SessionBuilder {
        self.strategy = strategy;
        self
    }

    /// Tensor-cache tunables (used only by the offload strategy).
    pub fn cache(mut self, cache: TensorCacheConfig) -> SessionBuilder {
        self.cache = cache;
        self
    }

    /// Recovery policy shorthand: rewrites `cache.recovery` in place.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> SessionBuilder {
        self.cache.recovery = recovery;
        self
    }

    /// Write-coalescing segment size shorthand: rewrites
    /// `cache.coalesce_segment_bytes` in place. Zero (the default)
    /// keeps the per-tensor store path; a positive value batches
    /// forward-pass stores into sequential segments of roughly this
    /// many bytes before they hit the tier queues.
    pub fn coalesce_segment(mut self, bytes: u64) -> SessionBuilder {
        self.cache.coalesce_segment_bytes = bytes;
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
        self.cache.prefetch_group_modules = modules;
        self
    }

    /// Prefetch lookahead shorthand: rewrites `cache.prefetch_depth`
    /// in place: modules ahead on the per-module path; on the grouped
    /// path the floor of the look-ahead, the groups kept in flight
    /// whatever the memory level.
    pub fn prefetch_depth(mut self, depth: usize) -> SessionBuilder {
        self.cache.prefetch_depth = depth;
        self
    }

    /// Per-store-job fixed cost shorthand: rewrites
    /// `system.store_job_overhead_secs` in place. This is the knob
    /// that makes coalescing pay off in simulated time — each queued
    /// store job charges this submission overhead on top of its
    /// bandwidth term.
    pub fn store_job_overhead(mut self, secs: f64) -> SessionBuilder {
        self.system.store_job_overhead_secs = secs;
        self
    }

    /// Per-write-op media overhead shorthand: rewrites
    /// `system.ssd_write_overhead_bytes` in place. Each store op
    /// charges this many extra media bytes on the wear meter (mapping
    /// granularity / page padding), so many small writes inflate the
    /// effective write-amplification factor relative to few large
    /// segments.
    pub fn ssd_write_overhead(mut self, bytes: u64) -> SessionBuilder {
        self.system.ssd_write_overhead_bytes = bytes;
        self
    }

    /// Shape-only execution (paper-scale runs).
    pub fn symbolic(mut self, symbolic: bool) -> SessionBuilder {
        self.symbolic = symbolic;
        self
    }

    /// Seed for weights, data and dropout.
    pub fn seed(mut self, seed: u64) -> SessionBuilder {
        self.seed = seed;
        self
    }

    /// The offload backend: one of the single-tier devices
    /// ([`OffloadBackend::Ssd`], [`OffloadBackend::Dram`]) or the tiered
    /// DRAM-then-SSD stack.
    pub fn backend(mut self, backend: OffloadBackend) -> SessionBuilder {
        self.backend = backend;
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
        self.offload = self.offload.with(class, enabled);
        self
    }

    /// Defers each step's optimizer update into the next step's forward
    /// window, as per-stage jobs racing the forecast layer arrivals (the
    /// GreedySnake overlap). Off by default: the per-stage jobs then run
    /// inline at the `OptimizerStep` stage when a state class is
    /// enabled, or the legacy whole-model update runs outside the
    /// measured window when none is.
    pub fn overlap_optimizer(mut self, overlap: bool) -> SessionBuilder {
        self.overlap_optimizer = overlap;
        self
    }

    /// SGD momentum. Zero (the default) keeps the paper's stateless
    /// optimizer; a positive value allocates per-parameter velocity —
    /// the state the `OptimizerState` class moves through the tiers.
    pub fn momentum(mut self, momentum: f32) -> SessionBuilder {
        self.momentum = momentum;
        self
    }

    /// Injects a deterministic fault schedule between the cache and the
    /// offload target.
    pub fn fault(mut self, plan: FaultPlan) -> SessionBuilder {
        self.fault = Some(plan);
        self
    }

    /// Names the spill-of-last-resort backend for
    /// [`RecoveryPolicy::FallbackTarget`]. Must be a single device
    /// (ssd or dram); rejected by [`build`] when the recovery policy
    /// would never consult it, or when handed the tiered stack.
    ///
    /// [`build`]: SessionBuilder::build
    pub fn fallback(mut self, backend: OffloadBackend) -> SessionBuilder {
        self.fallback = Some(backend);
        self
    }

    /// Routes the session's tensor-lifecycle events into `sink`.
    pub fn trace(mut self, sink: TraceSink) -> SessionBuilder {
        self.trace = sink;
        self
    }

    /// Validates the accumulated settings.
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] the settings violate.
    pub fn build(self) -> Result<SessionConfig, ConfigError> {
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if self.micro_batches == 0 {
            return Err(ConfigError::ZeroMicroBatches);
        }
        if !self.batch_size.is_multiple_of(self.micro_batches) {
            return Err(ConfigError::IndivisibleMicroBatches {
                batch_size: self.batch_size,
                micro_batches: self.micro_batches,
            });
        }
        if self.model.tp > self.system.gpus {
            return Err(ConfigError::TensorParallelMismatch {
                tp: self.model.tp,
                gpus: self.system.gpus,
            });
        }
        if self.fallback.is_some() && self.cache.recovery != RecoveryPolicy::FallbackTarget {
            return Err(ConfigError::FallbackWithoutPolicy);
        }
        if matches!(self.fallback, Some(OffloadBackend::Tiered { .. })) {
            return Err(ConfigError::TieredFallback);
        }
        if self.backend == (OffloadBackend::Tiered { dram_bytes: 0 }) {
            return Err(ConfigError::ZeroTierCapacity);
        }
        if self.offload.contains(OffloadClass::OptimizerState) && self.momentum <= 0.0 {
            return Err(ConfigError::StatelessOptimizerOffload);
        }
        if !self.offload.contains(OffloadClass::Activation) && self.strategy.uses_cache() {
            return Err(ConfigError::ActivationClassRequired);
        }
        Ok(SessionConfig {
            system: self.system,
            model: self.model,
            batch_size: self.batch_size,
            micro_batches: self.micro_batches,
            strategy: self.strategy,
            cache: self.cache,
            symbolic: self.symbolic,
            seed: self.seed,
            backend: self.backend,
            offload: self.offload,
            overlap_optimizer: self.overlap_optimizer,
            momentum: self.momentum,
            fault: self.fault,
            fallback: self.fallback,
            trace: self.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn offload_classes_accumulate_fluently() {
        let cfg = SessionConfig::builder()
            .offload(OffloadClass::Gradient, true)
            .offload(OffloadClass::OptimizerState, true)
            .momentum(0.9)
            .overlap_optimizer(true)
            .build()
            .expect("valid");
        assert_eq!(cfg.offload, OffloadClassSet::all());
        assert!(cfg.overlap_optimizer);
        assert_eq!(cfg.momentum, 0.9);
        // Default: activations only, no overlap, stateless SGD.
        let cfg = SessionConfig::builder().build().expect("valid");
        assert_eq!(cfg.offload, OffloadClassSet::activation_only());
        assert!(!cfg.overlap_optimizer);
        assert_eq!(cfg.momentum, 0.0);
    }

    #[test]
    fn io_pipeline_knobs_flow_into_the_config() {
        let cfg = SessionConfig::builder()
            .coalesce_segment(64 << 20)
            .prefetch_group(2)
            .prefetch_depth(3)
            .store_job_overhead(1e-3)
            .ssd_write_overhead(512 << 10)
            .build()
            .expect("valid");
        assert_eq!(cfg.cache.coalesce_segment_bytes, 64 << 20);
        assert_eq!(cfg.cache.prefetch_group_modules, 2);
        assert_eq!(cfg.cache.prefetch_depth, 3);
        assert_eq!(cfg.system.store_job_overhead_secs, 1e-3);
        assert_eq!(cfg.system.ssd_write_overhead_bytes, 512 << 10);
        // Defaults keep the legacy per-tensor path.
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
        assert!(cfg.offload.any_state());
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

    #[test]
    fn fallback_requires_the_matching_recovery_policy() {
        let err = SessionConfig::builder()
            .fallback(OffloadBackend::Dram)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::FallbackWithoutPolicy);

        let cfg = SessionConfig::builder()
            .recovery(RecoveryPolicy::FallbackTarget)
            .fallback(OffloadBackend::Dram)
            .build()
            .expect("policy matches");
        assert_eq!(cfg.fallback, Some(OffloadBackend::Dram));
    }

    #[test]
    fn a_tiered_fallback_is_rejected() {
        let err = SessionConfig::builder()
            .recovery(RecoveryPolicy::FallbackTarget)
            .fallback(OffloadBackend::Tiered {
                dram_bytes: 1 << 20,
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::TieredFallback);
        assert!(err.to_string().contains("single device"), "{err}");
    }
}
