//! Per-step measurements — the quantities the paper's figures plot.

use ssdtrain::OffloadStats;
use ssdtrain_simhw::{AllocatorStats, FootprintPoint};
use ssdtrain_tensor::Lent;

/// Everything measured during one training step.
#[derive(Debug, Clone)]
pub struct StepMetrics {
    /// Simulated step time, the weight update inside it. With no state
    /// class offloaded the update costs 0 seconds, so this is forward +
    /// backward, the paper's optimizer-excluded step (Section 4.1);
    /// offloaded state adds the update's exposed seconds
    /// ([`StepMetrics::opt_secs`], [`StepMetrics::opt_exposed_secs`]).
    pub step_secs: f64,
    /// Simulated forward-propagation time.
    pub fwd_secs: f64,
    /// Peak resident activation bytes (Figures 10/11's y-metric).
    pub act_peak_bytes: u64,
    /// Peak total resident bytes (Figure 7), parameters and state kept
    /// on the GPU included, as `torch.cuda.max_memory_allocated()` reads.
    pub total_peak_bytes: u64,
    /// Resident activation bytes at the start of backward propagation
    /// (the Figure 7 "beginning of backward" point).
    pub act_at_bwd_start: u64,
    /// The full memory-footprint timeline (Figure 7's curve), [`Lent`]
    /// by the GPU's memory tracker.
    pub timeline: Lent<FootprintPoint>,
    /// Tensor-cache statistics (zeroed for keep/recompute).
    pub offload: OffloadStats,
    /// Algorithmic FLOPs (forward + backward, recompute excluded).
    pub model_flops: u64,
    /// Seconds spent in blocking tensor-parallel collectives.
    pub comm_secs: f64,
    /// Host bytes written to the offload target this step (SSD wear).
    pub ssd_host_writes: u64,
    /// Caching-allocator model statistics (reserved vs allocated).
    pub alloc: AllocatorStats,
    /// Whether `total_peak_bytes` exceeded device memory (a real run OOMs).
    pub oom: bool,
    /// Training loss (`NaN` in symbolic runs).
    pub loss: f32,
    /// Simulated seconds the inline per-stage optimizer update spent
    /// inside the measured window: its state loads and stalls, so 0 when
    /// no state class is offloaded, and 0 for the in-backward update.
    pub opt_secs: f64,
    /// Simulated seconds the *in-backward* update exposed after backward:
    /// the wait at `ReduceGrads` for state loads still in flight (0 when
    /// every update finished inside backward).
    pub opt_exposed_secs: f64,
}

impl StepMetrics {
    /// The paper's *model throughput* in TFLOP/s: algorithmic FLOPs per
    /// step second (Section 4.3).
    pub fn model_tflops(&self) -> f64 {
        if self.step_secs > 0.0 {
            self.model_flops as f64 / self.step_secs / 1e12
        } else {
            0.0
        }
    }

    /// Activation peak in GiB (convenience for reports).
    pub fn act_peak_gib(&self) -> f64 {
        self.act_peak_bytes as f64 / (1u64 << 30) as f64
    }

    /// Whether offload-path recovery engaged during this step (failed
    /// stores kept resident, retried loads, fallback writes). The
    /// detailed counters live in [`StepMetrics::offload`].
    pub fn degraded(&self) -> bool {
        self.offload.degraded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> StepMetrics {
        StepMetrics {
            step_secs: 2.0,
            fwd_secs: 0.7,
            act_peak_bytes: 3 << 30,
            total_peak_bytes: 4 << 30,
            act_at_bwd_start: 2 << 30,
            timeline: Lent::default(),
            offload: OffloadStats::default(),
            model_flops: 4_000_000_000_000,
            comm_secs: 0.0,
            ssd_host_writes: 0,
            alloc: AllocatorStats::default(),
            oom: false,
            loss: 1.0,
            opt_secs: 0.0,
            opt_exposed_secs: 0.0,
        }
    }

    #[test]
    fn throughput_is_flops_over_time() {
        assert!((metrics().model_tflops() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gib_conversion() {
        assert!((metrics().act_peak_gib() - 3.0).abs() < 1e-9);
    }
}
