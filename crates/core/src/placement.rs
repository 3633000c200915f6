//! The offload class: *what kind* of tensor is leaving GPU memory.
//!
//! *Whether* a tensor leaves is decided where it is saved — the head of
//! `TensorCache`'s store path runs Algorithm 2's keep sequence
//! (parameter → below-threshold, then for activations backward-phase →
//! kept-module) — and *where* it lands is the [`crate::TierStack`]'s
//! admission decision ([`crate::TierStack::reserve`]). Both are keyed by
//! the class defined here, as are the stats counters and trace lanes.

use serde::{Deserialize, Serialize};

/// *What kind* of tensor is leaving GPU memory.
///
/// The paper offloads activations only; GreedySnake and ZeRO-Infinity
/// extend the same store/load machinery to gradients and optimizer
/// state — the dominant capacity term (12–16 bytes/param vs 2 for
/// weights). Every keep decision, tier admission and stats counter is
/// keyed by this class, so activation and state traffic share one store
/// path and one modeled critical path.
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

#[cfg(test)]
mod tests {
    use super::*;

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
