//! The placement layer: *whether* a saved tensor leaves GPU memory.
//!
//! Extracted from `TensorCache::pack` so the decision sequence of the
//! paper's Algorithm 2 (lines 12 and 15) is a pure, testable function
//! instead of control flow buried in record bookkeeping. The policy
//! answers **whether** a tensor is offload-eligible; **where** it lands
//! is the [`crate::TierStack`]'s admission decision
//! ([`crate::TierStack::reserve`]), and identity deduplication stays in
//! the cache because it needs the record table.
//!
//! The decision order is observable (it drives the `kept` counter) and
//! must not change: parameter → below-threshold → backward-phase or
//! kept-module.
// ssdtrain-lint: hot-path

use crate::config::TensorCacheConfig;
use serde::{Deserialize, Serialize};

/// *What kind* of tensor is leaving GPU memory.
///
/// The paper offloads activations only; GreedySnake and ZeRO-Infinity
/// extend the same store/load machinery to gradients and optimizer
/// state — the dominant capacity term (12–16 bytes/param vs 2 for
/// weights). Every placement decision, tier admission and stats counter
/// is keyed by this class so the planner can trade activation vs state
/// placement on one modeled critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OffloadClass {
    /// Forward activations saved for backward (the paper's subject).
    Activation,
    /// Accumulated gradients, held between backward and the optimizer
    /// update.
    Gradient,
    /// Optimizer state (momentum/variance), live across steps.
    OptimizerState,
}

impl OffloadClass {
    /// All classes, in stats/trace-lane order.
    pub const ALL: [OffloadClass; 3] = [
        OffloadClass::Activation,
        OffloadClass::Gradient,
        OffloadClass::OptimizerState,
    ];

    /// Stable lowercase label used in stats, trace lane names and JSON.
    pub fn label(self) -> &'static str {
        match self {
            OffloadClass::Activation => "activation",
            OffloadClass::Gradient => "gradient",
            OffloadClass::OptimizerState => "optimizer_state",
        }
    }

    /// Index into per-class counter arrays ([`OffloadClass::ALL`] order).
    pub fn index(self) -> usize {
        match self {
            OffloadClass::Activation => 0,
            OffloadClass::Gradient => 1,
            OffloadClass::OptimizerState => 2,
        }
    }
}

impl std::fmt::Display for OffloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a tensor stays resident instead of being offloaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// The tensor is (a view of) a registered parameter
    /// (Algorithm 1 lines 3–4).
    Parameter,
    /// Fewer elements than `min_offload_numel` (Algorithm 2 line 12).
    BelowThreshold,
    /// Saved during backward/recompute — offloading it would thrash
    /// (Algorithm 2 line 15).
    BackwardPhase,
    /// The adaptive plan keeps the innermost open module resident
    /// (Section 3.3.3, "keep the tail").
    KeptModule,
    /// Every placement-eligible tier was full; the stack refused
    /// admission and the cache keeps the tensor resident.
    TiersFull,
}

impl KeepReason {
    /// Whether this keep increments [`crate::OffloadStats::kept`] —
    /// parameters and small tensors were never offload candidates and
    /// are not counted, exactly as the pre-refactor `pack` behaved.
    pub fn counts_in_stats(self) -> bool {
        matches!(
            self,
            KeepReason::BackwardPhase | KeepReason::KeptModule | KeepReason::TiersFull
        )
    }
}

/// The placement decision for one saved tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Leave the tensor on the graph.
    Keep(KeepReason),
    /// Offload-eligible: the cache deduplicates, then asks the
    /// [`crate::TierStack`] to admit the bytes.
    Offload,
}

impl Placement {
    /// Whether the tensor stays resident.
    pub fn is_keep(self) -> bool {
        matches!(self, Placement::Keep(_))
    }
}

/// Everything the policy needs to know about one saved tensor — the
/// cache gathers these from its record state under its own lock and
/// hands the policy a plain value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementQuery {
    /// What kind of tensor this is; non-activation classes skip the
    /// activation-lifecycle keeps (backward-phase, kept-module).
    pub class: OffloadClass,
    /// The tensor shares storage with a registered parameter.
    pub is_parameter: bool,
    /// Element count.
    pub numel: usize,
    /// The autograd engine is in backward / recompute.
    pub in_backward: bool,
    /// The innermost open module is kept by the adaptive plan (already
    /// `false` during profiling steps, which offload everything).
    pub module_kept: bool,
}

/// Decides whether a saved tensor leaves GPU memory.
///
/// ```
/// use ssdtrain::{KeepReason, OffloadClass, Placement, PlacementPolicy, PlacementQuery};
///
/// let policy = PlacementPolicy::new(1024);
/// let q = PlacementQuery {
///     class: OffloadClass::Activation,
///     is_parameter: false,
///     numel: 64,
///     in_backward: false,
///     module_kept: false,
/// };
/// assert_eq!(policy.decide(&q), Placement::Keep(KeepReason::BelowThreshold));
/// assert_eq!(
///     policy.decide(&PlacementQuery { numel: 4096, ..q }),
///     Placement::Offload
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementPolicy {
    min_offload_numel: usize,
}

impl PlacementPolicy {
    /// A policy offloading tensors of at least `min_offload_numel`
    /// elements.
    pub fn new(min_offload_numel: usize) -> PlacementPolicy {
        PlacementPolicy { min_offload_numel }
    }

    /// The policy a [`TensorCacheConfig`] implies.
    pub fn from_config(config: &TensorCacheConfig) -> PlacementPolicy {
        PlacementPolicy::new(config.min_offload_numel)
    }

    /// The offload threshold in elements.
    pub fn min_offload_numel(&self) -> usize {
        self.min_offload_numel
    }

    /// Algorithm 2's keep/offload sequence, in its original order.
    ///
    /// Gradients and optimizer state share the parameter and threshold
    /// keeps, but skip the two activation-lifecycle conditions
    /// (backward-phase, kept-module): their live ranges are bounded by
    /// the optimizer schedule, not the autograd phase, so Algorithm 2's
    /// thrash guards do not apply.
    pub fn decide(&self, query: &PlacementQuery) -> Placement {
        if query.is_parameter {
            return Placement::Keep(KeepReason::Parameter);
        }
        if query.numel < self.min_offload_numel {
            return Placement::Keep(KeepReason::BelowThreshold);
        }
        if query.class == OffloadClass::Activation {
            if query.in_backward {
                return Placement::Keep(KeepReason::BackwardPhase);
            }
            if query.module_kept {
                return Placement::Keep(KeepReason::KeptModule);
            }
        }
        Placement::Offload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> PlacementQuery {
        PlacementQuery {
            class: OffloadClass::Activation,
            is_parameter: false,
            numel: 1 << 20,
            in_backward: false,
            module_kept: false,
        }
    }

    #[test]
    fn decision_order_matches_algorithm_2() {
        let p = PlacementPolicy::new(1024);
        // A parameter wins over every other reason.
        assert_eq!(
            p.decide(&PlacementQuery {
                class: OffloadClass::Activation,
                is_parameter: true,
                numel: 1,
                in_backward: true,
                module_kept: true,
            }),
            Placement::Keep(KeepReason::Parameter)
        );
        // Threshold beats phase.
        assert_eq!(
            p.decide(&PlacementQuery {
                numel: 8,
                in_backward: true,
                ..q()
            }),
            Placement::Keep(KeepReason::BelowThreshold)
        );
        // Phase beats the plan.
        assert_eq!(
            p.decide(&PlacementQuery {
                in_backward: true,
                module_kept: true,
                ..q()
            }),
            Placement::Keep(KeepReason::BackwardPhase)
        );
        assert_eq!(
            p.decide(&PlacementQuery {
                module_kept: true,
                ..q()
            }),
            Placement::Keep(KeepReason::KeptModule)
        );
        assert_eq!(p.decide(&q()), Placement::Offload);
    }

    #[test]
    fn only_policy_keeps_count_in_stats() {
        assert!(!KeepReason::Parameter.counts_in_stats());
        assert!(!KeepReason::BelowThreshold.counts_in_stats());
        assert!(KeepReason::BackwardPhase.counts_in_stats());
        assert!(KeepReason::KeptModule.counts_in_stats());
        assert!(KeepReason::TiersFull.counts_in_stats());
    }

    #[test]
    fn from_config_reads_the_threshold() {
        let cfg = TensorCacheConfig {
            min_offload_numel: 777,
            ..TensorCacheConfig::default()
        };
        let p = PlacementPolicy::from_config(&cfg);
        assert_eq!(p.min_offload_numel(), 777);
        assert!(p.decide(&PlacementQuery { numel: 776, ..q() }).is_keep());
    }

    #[test]
    fn state_classes_skip_the_activation_lifecycle_keeps() {
        let p = PlacementPolicy::new(1024);
        for class in [OffloadClass::Gradient, OffloadClass::OptimizerState] {
            // Backward-phase and kept-module do not apply to state.
            assert_eq!(
                p.decide(&PlacementQuery {
                    class,
                    in_backward: true,
                    module_kept: true,
                    ..q()
                }),
                Placement::Offload
            );
            // Parameter and threshold keeps still do.
            assert!(p
                .decide(&PlacementQuery {
                    class,
                    is_parameter: true,
                    ..q()
                })
                .is_keep());
            assert_eq!(
                p.decide(&PlacementQuery {
                    class,
                    numel: 8,
                    ..q()
                }),
                Placement::Keep(KeepReason::BelowThreshold)
            );
        }
    }

    #[test]
    fn class_labels_are_stable() {
        assert_eq!(OffloadClass::Activation.label(), "activation");
        assert_eq!(OffloadClass::Gradient.label(), "gradient");
        assert_eq!(OffloadClass::OptimizerState.label(), "optimizer_state");
        for (i, class) in OffloadClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
            assert_eq!(format!("{class}"), class.label());
        }
    }
}
