//! Assembled system configurations.

use crate::catalog::ssds;
use crate::gpu::GpuSpec;
use crate::memory::GpuMemory;
use crate::ssd::Raid0;
use crate::time::SimClock;
use std::sync::Arc;

/// How offloaded bytes travel between GPU memory and the SSD array —
/// the "Direct GPU-SSD data path" axis of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffloadPath {
    /// GPUDirect Storage: one PCIe hop, no CPU involvement (the paper's
    /// design, via kvikio/GDS).
    Direct,
    /// Bounce buffer through host DRAM: the data crosses PCIe twice and
    /// a CPU memcpy contends with training-management work, leaving only
    /// `efficiency` of the link rate (the earlier systems of Table 2).
    ViaHost {
        /// Fraction of the direct-path bandwidth actually achieved
        /// (~0.4–0.6 empirically, per the GDS measurements the paper
        /// cites).
        efficiency: f64,
    },
}

/// Static description of one GPU's I/O neighbourhood in a training node.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Human-readable name.
    pub name: String,
    /// GPU model.
    pub gpu: GpuSpec,
    /// Number of GPUs participating (tensor parallel within the node).
    pub gpus: usize,
    /// PCIe bandwidth per direction per GPU, bytes/s (Gen4 x16 ≈ 26 GB/s
    /// effective with GDS).
    pub pcie_bps: f64,
    /// NVLink bandwidth between GPU pairs, bytes/s (A100: 600 GB/s
    /// aggregate; we model the per-direction usable rate).
    pub nvlink_bps: f64,
    /// The SSD array dedicated to each GPU.
    pub ssd_array: Raid0,
    /// Host memory capacity, bytes (bounds CPU offloading, Figure 2).
    pub host_mem_bytes: u64,
    /// GPU↔SSD data path (Table 2's first axis).
    pub offload_path: OffloadPath,
    /// Fixed per-store-job submission overhead, seconds (driver ioctl +
    /// DMA descriptor setup). 0 = the pre-existing bandwidth-only model.
    pub store_job_overhead_secs: f64,
    /// Per-write-operation media overhead charged on the SSD array's
    /// wear meter, bytes (FTL mapping + partial erase-block RMW). 0 =
    /// ideal WAF-1 sequential model.
    pub ssd_write_overhead_bytes: u64,
}

impl SystemConfig {
    /// The paper's evaluation machine (Table 3): 2× A100 40 GB PCIe with
    /// NVLink, 7× Intel Optane P5800X split into RAID0 arrays of 3 and 4
    /// drives, one array per GPU. We model the measured GPU (the one with
    /// the 4-drive array, as the paper states).
    pub fn dac_testbed() -> SystemConfig {
        SystemConfig {
            name: "2xA100 + 7xP5800X (Table 3)".into(),
            gpu: GpuSpec::a100_pcie_40gb(),
            gpus: 2,
            pcie_bps: 25.0e9,
            nvlink_bps: 250.0e9,
            ssd_array: Raid0::new(ssds::optane_p5800x(), 4),
            host_mem_bytes: 1024 * (1u64 << 30),
            offload_path: OffloadPath::Direct,
            store_job_overhead_secs: 0.0,
            ssd_write_overhead_bytes: 0,
        }
    }

    /// This machine with the bounce-buffer data path instead of GDS.
    pub fn with_via_host_path(mut self, efficiency: f64) -> SystemConfig {
        assert!((0.0..=1.0).contains(&efficiency), "efficiency in (0, 1]");
        self.offload_path = OffloadPath::ViaHost { efficiency };
        self
    }

    fn path_efficiency(&self) -> f64 {
        match self.offload_path {
            OffloadPath::Direct => 1.0,
            OffloadPath::ViaHost { efficiency } => efficiency,
        }
    }

    /// Effective offload *write* bandwidth: the paper's data path is
    /// GPU → PCIe → SSD array, so the minimum of the two rates (scaled
    /// down when bouncing through host memory).
    pub fn offload_write_bps(&self) -> f64 {
        self.pcie_bps.min(self.ssd_array.write_bps()) * self.path_efficiency()
    }

    /// Effective offload *read* bandwidth.
    pub fn offload_read_bps(&self) -> f64 {
        self.pcie_bps.min(self.ssd_array.read_bps()) * self.path_efficiency()
    }

    /// Bandwidth of the GPU → PCIe → host-DRAM path, symmetric per
    /// direction: a host-memory offload tier is capped by the PCIe link
    /// alone (no SSD array in the way).
    pub fn host_offload_bps(&self) -> f64 {
        self.pcie_bps
    }

    /// Instantiates the runtime pieces for one simulated GPU: a clock
    /// and its memory tracker.
    pub fn instantiate(&self) -> GpuRuntime {
        let clock = SimClock::new();
        let mem = Arc::new(GpuMemory::new(clock.clone(), self.gpu.memory_bytes));
        GpuRuntime { memory: mem, clock }
    }
}

/// Live runtime resources for one simulated GPU.
#[derive(Debug, Clone)]
pub struct GpuRuntime {
    /// The memory tracker to register on the device.
    pub memory: Arc<GpuMemory>,
    /// The shared step clock.
    pub clock: SimClock,
}

impl GpuRuntime {
    /// Resets the clock and starts the memory tracker's next step log.
    pub fn reset(&self) {
        self.clock.reset();
        self.memory.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_matches_table3() {
        let sys = SystemConfig::dac_testbed();
        assert_eq!(sys.gpus, 2);
        assert_eq!(sys.gpu.memory_bytes, 40 * (1u64 << 30));
        assert_eq!(sys.ssd_array.n, 4);
        assert_eq!(sys.host_mem_bytes, 1024 * (1u64 << 30));
    }

    #[test]
    fn via_host_path_costs_bandwidth() {
        let sys = SystemConfig::dac_testbed().with_via_host_path(0.5);
        assert!((sys.offload_write_bps() - 12.2e9).abs() < 0.1e9);
        assert!((sys.offload_read_bps() - 12.5e9).abs() < 0.1e9);
    }

    #[test]
    fn offload_bandwidth_is_min_of_pcie_and_array() {
        let sys = SystemConfig::dac_testbed();
        // 4x P5800X write = 24.4 GB/s < PCIe 25 GB/s.
        assert!((sys.offload_write_bps() - 24.4e9).abs() < 0.1e9);
        // Read: PCIe 25 GB/s < 4x 7.2 = 28.8 GB/s.
        assert!((sys.offload_read_bps() - 25.0e9).abs() < 0.1e9);
    }

    #[test]
    fn instantiate_wires_clock_into_memory() {
        let sys = SystemConfig::dac_testbed();
        let rt = sys.instantiate();
        rt.clock.advance_by(1.0);
        assert_eq!(rt.clock.now().as_secs(), 1.0);
        rt.reset();
        assert_eq!(rt.clock.now().as_secs(), 0.0);
    }
}
