//! Tensor-cache configuration and the ROK placement strategies.

/// Where activations live between forward and backward — the three
/// corners of the paper's recompute-offload-keep (ROK) design space
/// (Section 4.3, Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementStrategy {
    /// Keep every activation in GPU memory (the PyTorch default).
    Keep,
    /// Offload to SSD through the tensor cache (the paper's system).
    #[default]
    Offload,
    /// Layerwise full recomputation (activation checkpointing).
    Recompute,
    /// Recompute the first `recompute_layers` layers and offload the
    /// rest — an interior point of the ROK plane and the joint
    /// optimisation the paper's Section 4.4 leaves open. Exercises the
    /// cache's keep-in-memory path for recomputed activations
    /// (Algorithm 2 line 15).
    Hybrid {
        /// Layers (per stack, in forward order) under checkpointing.
        recompute_layers: usize,
    },
}

impl PlacementStrategy {
    /// Stable lowercase label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            PlacementStrategy::Keep => "keep",
            PlacementStrategy::Offload => "offload",
            PlacementStrategy::Recompute => "recompute",
            PlacementStrategy::Hybrid { .. } => "hybrid",
        }
    }

    /// Whether this strategy runs the tensor cache.
    pub const fn uses_cache(self) -> bool {
        matches!(
            self,
            PlacementStrategy::Offload | PlacementStrategy::Hybrid { .. }
        )
    }
}

impl std::fmt::Display for PlacementStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What the tensor cache does when the offload target fails an I/O
/// operation (see the fault-injection subsystem,
/// [`ssdtrain_simhw::FaultPlan`] and [`crate::FaultyTarget`]).
///
/// Store failures are always absorbed by keeping the tensor resident —
/// the bytes never left GPU memory, so training continues bit-identical
/// to the no-fault run — the policy decides what *else* happens. Load
/// failures are retried up to [`MAX_IO_RETRIES`] times and surface a
/// structured [`crate::OffloadError`] regardless of policy if they
/// persist: the activation bytes are gone and no local decision can
/// bring them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecoveryPolicy {
    /// Surface the first store failure as a step error. The tensor is
    /// still kept resident so the in-flight step stays numerically
    /// valid, but `run_step` reports `Err` and the training loop
    /// decides (abort, checkpoint, re-plan).
    FailStep,
    /// Absorb the failure: the tensor stays in GPU memory for the rest
    /// of the step and the step completes with degraded-mode counters
    /// (`store_failures`, `kept_resident_bytes`) reported.
    #[default]
    KeepResident,
    /// Re-issue the failed store to the tiers below the one that refused
    /// it — a stack built with a demotion-only fallback tier
    /// ([`crate::Tier::demotion_only`]; the paper's CPU offloader as a
    /// spill-of-last-resort) always has one — retrying up to
    /// [`MAX_IO_RETRIES`] times; if the fallback also fails, degrade to
    /// [`RecoveryPolicy::KeepResident`] behaviour.
    FallbackTarget,
}

impl RecoveryPolicy {
    /// Stable lowercase label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            RecoveryPolicy::FailStep => "fail-step",
            RecoveryPolicy::KeepResident => "keep-resident",
            RecoveryPolicy::FallbackTarget => "fallback-target",
        }
    }
}

impl std::fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Extra attempts for a failed load (and for each fallback store)
/// before the failure is considered permanent.
pub const MAX_IO_RETRIES: u32 = 2;

/// Tunables of the [`crate::TensorCache`]. Every optimisation the paper
/// describes can be disabled individually, which is what the ablation
/// benches sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorCacheConfig {
    /// Minimum element count for a tensor to be offloaded; smaller
    /// tensors are kept (paper Algorithm 2 line 12: `2**20`).
    pub min_offload_numel: usize,
    /// Deduplicate saves of the same tensor identity (Section 3.3.1).
    pub dedup: bool,
    /// Return in-flight stores from memory instead of reloading
    /// (Section 3.3.2, "data forwarding").
    pub forwarding: bool,
    /// Cancel queued store jobs whose tensor was forwarded
    /// (Section 3.3.3, adaptive offloading feature 1).
    pub cancel_forwarded_stores: bool,
    /// Apply the adaptive keep-the-tail plan produced by profiling
    /// (Section 3.3.3, feature 2). When `false`, profiling applies the
    /// keep-last-only plan ([`crate::AdaptivePlan::keep_last_only`]):
    /// everything eligible is offloaded but the last module.
    pub adaptive: bool,
    /// How many upcoming modules to keep in the load queue during
    /// backward, prefetching their activations (Section 3.3.2). The
    /// paper notes any scheme works "as long as there are always I/O
    /// tasks in the GPU job queue to keep PCIe busy". `0` turns
    /// prefetching off: every reload is exposed on the critical path —
    /// the behaviour of the non-async systems in Table 2. Otherwise a
    /// step that follows a profiling step ignores the depth: it reloads
    /// each activation its profile saw just in time for its first use,
    /// as the profiling backward timed it, and prefetches nothing else;
    /// a record the profile did not see is a demand reload at its
    /// unpack. The profile is micro-batch 0's backward, and every
    /// micro-batch of a later step plans from it. The depth walk runs on
    /// unprofiled steps and on the profiling step; depth 1 is the
    /// paper's scheme (prefetch the next module), and a deeper walk
    /// holds more memory for less risk of a stall. In group mode
    /// ([`TensorCacheConfig::prefetch_group_modules`]) it counts groups
    /// and is the look-ahead's *floor*: that many record-holding groups
    /// are kept in flight whatever the memory level; further groups go
    /// out only as memory allows.
    pub prefetch_depth: usize,
    /// Group size, in modules, for group-based backward prefetch: the
    /// forward order is cut into groups of this many modules and, from
    /// the moment a backward pass is announced, the groups that hold
    /// records are reloaded in the order backward reads them —
    /// `prefetch_depth` of them unconditionally (2 is the classic
    /// double buffer), the rest as far ahead as their reloads fit under
    /// the activation level the pass began at, so the look-ahead spends
    /// the memory backward hands back and never lifts the peak. `0`
    /// (the default) keeps the per-module lookahead driven by
    /// `prefetch_depth` alone.
    pub prefetch_group_modules: usize,
    /// Coalesce small tensor stores into sequential segments of at most
    /// this many bytes before they reach the I/O queues: one segment is
    /// one store job and one device write operation, which is how the
    /// paper keeps the SSD write path dense (WAF → 1). `0` (the
    /// default) seals on every stage — every tensor is a segment of
    /// one, its own job and its own device write.
    pub coalesce_segment_bytes: u64,
    /// Backward-to-forward time ratio (the paper estimates ≈ 2). No cache
    /// decision reads it: it only feeds [`crate::AdaptivePlan::decide`]
    /// for profiles built by hand and [`crate::CostModel::modeled_step_secs`].
    pub bwd_fwd_ratio: f64,
    /// What to do when the offload target fails an I/O operation.
    pub recovery: RecoveryPolicy,
}

impl Default for TensorCacheConfig {
    fn default() -> Self {
        TensorCacheConfig {
            min_offload_numel: 1 << 20,
            dedup: true,
            forwarding: true,
            cancel_forwarded_stores: true,
            adaptive: true,
            prefetch_depth: 2,
            prefetch_group_modules: 0,
            coalesce_segment_bytes: 0,
            bwd_fwd_ratio: 2.0,
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl TensorCacheConfig {
    /// A configuration suitable for functional tests: offloads even tiny
    /// tensors so small models exercise the full path.
    pub fn offload_everything() -> TensorCacheConfig {
        TensorCacheConfig {
            min_offload_numel: 0,
            ..TensorCacheConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_threshold() {
        let c = TensorCacheConfig::default();
        assert_eq!(c.min_offload_numel, 1 << 20);
        assert!(c.dedup && c.forwarding && c.adaptive);
        assert!(c.prefetch_depth > 0, "prefetch is on by default");
        assert_eq!(c.bwd_fwd_ratio, 2.0);
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(PlacementStrategy::Keep.to_string(), "keep");
        assert_eq!(PlacementStrategy::Offload.to_string(), "offload");
        assert_eq!(PlacementStrategy::Recompute.to_string(), "recompute");
    }

    #[test]
    fn io_pipeline_knobs_default_off() {
        let c = TensorCacheConfig::default();
        assert_eq!(c.coalesce_segment_bytes, 0, "coalescing is opt-in");
        assert_eq!(c.prefetch_group_modules, 0, "group prefetch is opt-in");
        assert_eq!(c, TensorCacheConfig::default(), "defaults are stable");
    }

    #[test]
    fn recovery_defaults_to_keep_resident() {
        let c = TensorCacheConfig::default();
        assert_eq!(c.recovery, RecoveryPolicy::KeepResident);
        assert_eq!(RecoveryPolicy::FailStep.to_string(), "fail-step");
        assert_eq!(
            RecoveryPolicy::FallbackTarget.to_string(),
            "fallback-target"
        );
    }
}
