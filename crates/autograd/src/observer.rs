//! Execution observation: per-operator cost reporting.
//!
//! The training-step engine implements [`ExecObserver`] to advance the
//! simulated GPU clock by each operator's modelled kernel time; the same
//! channel reports execution phases so the tensor cache knows when
//! backward (and checkpoint recomputation) is in progress.

use std::fmt;

/// Phase of step execution an operator runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// Forward propagation of a micro-batch.
    #[default]
    Forward,
    /// Backward propagation.
    Backward,
    /// Forward recomputation inside backward (activation checkpointing).
    /// The SSDTrain cache must *not* offload activations produced here
    /// (paper Algorithm 2, line 15).
    Recompute,
}

impl Phase {
    /// True for phases executing inside backward propagation.
    pub fn in_backward(self) -> bool {
        matches!(self, Phase::Backward | Phase::Recompute)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Forward => "forward",
            Phase::Backward => "backward",
            Phase::Recompute => "recompute",
        };
        f.write_str(s)
    }
}

/// Modelled cost of one kernel launch.
///
/// Derived from tensor shapes, so it is exact in both numeric and symbolic
/// execution modes. The GPU roofline in `ssdtrain-simhw` converts it to a
/// duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes read from device memory (at accounted dtype width).
    pub bytes_read: u64,
    /// Bytes written to device memory.
    pub(crate) bytes_written: u64,
}

impl OpCost {
    /// A cost with the given fields.
    pub fn new(flops: u64, bytes_read: u64, bytes_written: u64) -> OpCost {
        OpCost {
            flops,
            bytes_read,
            bytes_written,
        }
    }

    /// Total device-memory traffic.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Observer of operator execution.
///
/// `on_op` is called once per executed operator, *after* its outputs are
/// materialised and *before* its saved tensors are packed — so a pack-hook
/// driven offload starts at the operator's completion time, matching the
/// paper's Figure 4 (offloading of an activation starts once the operator
/// producing it finishes).
pub trait ExecObserver: Send + Sync {
    /// One operator ran.
    fn on_op(&self, name: &str, cost: &OpCost, phase: Phase);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_moved_sums_reads_and_writes() {
        assert_eq!(OpCost::new(11, 22, 33).bytes_moved(), 55);
    }

    #[test]
    fn phase_in_backward() {
        assert!(!Phase::Forward.in_backward());
        assert!(Phase::Backward.in_backward());
        assert!(Phase::Recompute.in_backward());
    }
}
