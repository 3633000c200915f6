//! The GPU-stream executor: turns operator costs into simulated time.

use parking_lot::Mutex;
use ssdtrain_autograd::{ExecObserver, OpCost, Phase};
use ssdtrain_simhw::{GpuSpec, SimClock};

/// Kernels timed with the GEMM efficiency of the roofline.
fn is_matmul(name: &str) -> bool {
    matches!(name, "matmul" | "bmm" | "flash_attention")
}

#[derive(Debug, Default, Clone, Copy)]
struct PhaseTotals {
    flops: u64,
    secs: f64,
}

#[derive(Debug, Default)]
struct Totals {
    forward: PhaseTotals,
    backward: PhaseTotals,
    recompute: PhaseTotals,
    comm_secs: f64,
}

/// An [`ExecObserver`] that advances the step clock past every kernel
/// using the GPU roofline, times `allreduce` collectives on the
/// interconnect, and accumulates per-phase FLOP totals (the numerator of
/// the paper's *model throughput* excludes recomputation FLOPs).
pub struct GpuExecutor {
    clock: SimClock,
    gpu: GpuSpec,
    nvlink_bps: f64,
    tp: usize,
    totals: Mutex<Totals>,
}

impl GpuExecutor {
    /// Creates an executor for one GPU participating in a `tp`-way
    /// tensor-parallel group over an interconnect of `nvlink_bps`
    /// bytes/s.
    pub fn new(clock: SimClock, gpu: GpuSpec, nvlink_bps: f64, tp: usize) -> GpuExecutor {
        GpuExecutor {
            clock,
            gpu,
            nvlink_bps,
            tp,
            totals: Mutex::new(Totals::default()),
        }
    }

    /// Ring-allreduce wall time for a `bytes` payload across `tp` ranks.
    pub fn allreduce_secs(&self, bytes: u64) -> f64 {
        if self.tp <= 1 {
            return 0.0;
        }
        let wire = bytes as f64 * 2.0 * (self.tp as f64 - 1.0) / self.tp as f64;
        wire / self.nvlink_bps
    }

    /// GPU seconds spent in `phase` so far.
    pub fn phase_secs(&self, phase: Phase) -> f64 {
        let t = self.totals.lock();
        match phase {
            Phase::Forward => t.forward.secs,
            Phase::Backward => t.backward.secs,
            Phase::Recompute => t.recompute.secs,
        }
    }

    /// Seconds spent in blocking collectives.
    pub fn comm_secs(&self) -> f64 {
        self.totals.lock().comm_secs
    }

    /// *Algorithmic* FLOPs of the step: forward + backward, excluding
    /// recomputation — the paper's model-throughput numerator
    /// (Section 4.3).
    pub fn model_flops(&self) -> u64 {
        let t = self.totals.lock();
        t.forward.flops + t.backward.flops
    }

    /// Clears accumulated totals (new measured step).
    pub fn reset(&self) {
        *self.totals.lock() = Totals::default();
    }
}

impl ExecObserver for GpuExecutor {
    fn on_op(&self, name: &str, cost: &OpCost, phase: Phase) {
        let secs = if name == "allreduce" {
            let t = self.allreduce_secs(cost.bytes_read);
            self.totals.lock().comm_secs += t;
            t
        } else if name == "checkpoint" {
            0.0 // segment ops report themselves
        } else {
            self.gpu
                .kernel_time(cost.flops, cost.bytes_moved(), is_matmul(name))
        };
        self.clock.advance_by(secs);
        let mut totals = self.totals.lock();
        let slot = match phase {
            Phase::Forward => &mut totals.forward,
            Phase::Backward => &mut totals.backward,
            Phase::Recompute => &mut totals.recompute,
        };
        slot.flops += cost.flops;
        slot.secs += secs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(tp: usize) -> (SimClock, GpuExecutor) {
        let clock = SimClock::new();
        let e = GpuExecutor::new(clock.clone(), GpuSpec::a100_pcie_40gb(), 250e9, tp);
        (clock, e)
    }

    #[test]
    fn kernels_advance_the_clock() {
        let (clock, e) = exec(1);
        e.on_op(
            "matmul",
            &OpCost::new(1_000_000_000_000, 0, 0),
            Phase::Forward,
        );
        // 1 TFLOP at ~140 TFLOP/s ≈ 7 ms.
        let t = clock.now().as_secs();
        assert!(t > 0.005 && t < 0.01, "{t}");
        assert_eq!(e.model_flops(), 1_000_000_000_000);
    }

    #[test]
    fn allreduce_times_on_the_interconnect() {
        let (clock, e) = exec(2);
        // 250 GB payload over 250 GB/s with tp=2: wire = bytes, 1 s.
        e.on_op(
            "allreduce",
            &OpCost::new(0, 250_000_000_000, 250_000_000_000),
            Phase::Forward,
        );
        assert!((clock.now().as_secs() - 1.0).abs() < 1e-9);
        assert!((e.comm_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn allreduce_is_free_without_tp() {
        let (clock, e) = exec(1);
        e.on_op(
            "allreduce",
            &OpCost::new(0, 1 << 30, 1 << 30),
            Phase::Forward,
        );
        assert_eq!(clock.now().as_secs(), 0.0);
    }

    #[test]
    fn model_flops_exclude_recompute() {
        let (_c, e) = exec(1);
        e.on_op("matmul", &OpCost::new(100, 0, 0), Phase::Forward);
        e.on_op("matmul", &OpCost::new(200, 0, 0), Phase::Backward);
        e.on_op("matmul", &OpCost::new(100, 0, 0), Phase::Recompute);
        assert_eq!(e.model_flops(), 300);
    }

    #[test]
    fn reset_clears_totals() {
        let (_c, e) = exec(1);
        e.on_op("gelu", &OpCost::new(10, 10, 10), Phase::Forward);
        e.reset();
        assert_eq!(e.model_flops(), 0);
        assert_eq!(e.phase_secs(Phase::Forward), 0.0);
    }
}
