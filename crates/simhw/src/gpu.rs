//! GPU kernel-time model.

/// Performance characteristics of one GPU.
///
/// Kernel durations follow a roofline: compute-bound kernels take
/// `flops / (peak × efficiency)`, memory-bound kernels take
/// `bytes / hbm_bandwidth`, and every launch pays a fixed overhead —
/// which is why small micro-batches under-utilise the device, the effect
/// the paper's introduction describes.
///
/// ```
/// use ssdtrain_simhw::GpuSpec;
/// let a100 = GpuSpec::a100_pcie_40gb();
/// // A large matmul is compute-bound: 2 TFLOP at ~140 TFLOP/s ≈ 14 ms.
/// let t = a100.kernel_time(2e12 as u64, 1 << 30, true);
/// assert!(t > 0.012 && t < 0.017, "{t}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Peak dense FP16 throughput in TFLOP/s.
    pub fp16_tflops: f64,
    /// Achievable fraction of peak for large GEMMs (model FLOPs
    /// utilisation; Megatron-LM reports 0.4–0.52 on A100).
    pub(crate) matmul_efficiency: f64,
    /// Achievable fraction of peak for non-GEMM kernels.
    pub(crate) elementwise_efficiency: f64,
    /// HBM bandwidth in GB/s.
    pub(crate) hbm_gbps: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
    /// Fixed kernel-launch overhead in seconds.
    pub(crate) launch_overhead_s: f64,
}

impl GpuSpec {
    /// The evaluation GPU: Nvidia A100 PCIe 40 GB (Table 3), locked at
    /// base frequency as the paper does for consistent numbers.
    pub fn a100_pcie_40gb() -> GpuSpec {
        GpuSpec {
            name: "A100-PCIe-40GB".into(),
            fp16_tflops: 312.0,
            matmul_efficiency: 0.45,
            elementwise_efficiency: 0.80,
            hbm_gbps: 1555.0,
            memory_bytes: 40 * (1u64 << 30),
            launch_overhead_s: 5e-6,
        }
    }

    /// Duration of one kernel in seconds.
    ///
    /// `is_matmul` selects the GEMM efficiency; other kernels are usually
    /// bandwidth-bound anyway.
    pub fn kernel_time(&self, flops: u64, bytes_moved: u64, is_matmul: bool) -> f64 {
        let eff = if is_matmul {
            self.matmul_efficiency
        } else {
            self.elementwise_efficiency
        };
        let t_compute = flops as f64 / (self.fp16_tflops * 1e12 * eff);
        let t_memory = bytes_moved as f64 / (self.hbm_gbps * 1e9);
        t_compute.max(t_memory) + self.launch_overhead_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_kernels_pay_launch_overhead() {
        let g = GpuSpec::a100_pcie_40gb();
        let t = g.kernel_time(1000, 1000, false);
        assert!(t >= g.launch_overhead_s);
        assert!(t < 2.0 * g.launch_overhead_s);
    }

    #[test]
    fn memory_bound_kernel_times_by_bandwidth() {
        let g = GpuSpec::a100_pcie_40gb();
        // 155.5 GB at 1555 GB/s ≈ 0.1 s, compute negligible.
        let t = g.kernel_time(1, 155_500_000_000, false);
        assert!((t - 0.1).abs() < 0.001, "{t}");
    }

    #[test]
    fn compute_bound_kernel_times_by_flops() {
        let g = GpuSpec::a100_pcie_40gb();
        let eff = g.fp16_tflops * g.matmul_efficiency * 1e12;
        let flops = 1e15 as u64;
        let t = g.kernel_time(flops, 0, true);
        assert!((t - flops as f64 / eff).abs() < 1e-4, "{t}");
    }

    #[test]
    fn a100_effective_throughput_matches_megatron_range() {
        let g = GpuSpec::a100_pcie_40gb();
        let eff = g.fp16_tflops * g.matmul_efficiency;
        assert!((130.0..170.0).contains(&eff), "{eff}");
    }
}
