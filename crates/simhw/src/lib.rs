//! # ssdtrain-simhw
//!
//! Hardware timing substrate for the SSDTrain reproduction: everything the
//! paper measured on real silicon — an A100's kernel throughput, the GPU
//! memory allocator's footprint timeline, PCIe transfer channels, and
//! NVMe SSD bandwidth/endurance — modelled deterministically so that
//! paper-scale training steps can be *timed* while being executed
//! symbolically.
//!
//! The model is deliberately simple and documented per component:
//!
//! * [`GpuSpec`] — roofline kernel timing: `max(flops/throughput,
//!   bytes/bandwidth) + launch overhead`.
//! * [`GpuMemory`] — a [`ssdtrain_tensor::MemTracker`] recording every
//!   allocation/free with its simulated timestamp, reconstructing the
//!   paper's Figure 7 memory-footprint curve and per-class peaks.
//! * [`Channel`] — a FIFO bandwidth resource (PCIe write/read direction,
//!   NVLink); jobs queue and the channel reports per-job start/finish.
//! * [`BufferArena`] — the pinned host staging pool: size-classed slab
//!   reuse with high-water and footprint accounting, so offload
//!   configurations expose their real pinned-memory cost.
//! * [`SsdSpec`] / [`WearMeter`] / [`Raid0`] — sequential-write bandwidth,
//!   endurance in petabytes-written, write-amplification and retention
//!   relaxation (paper Sections 2.3 and 3.4).
//! * [`catalog`] — real device data behind Table 1, Figure 1 and
//!   Figure 2.
//! * [`SystemConfig`] — assembled machines, including the paper's
//!   evaluation testbed (Table 3).

#![deny(missing_docs)]

pub mod allocator;
pub mod arena;
pub mod catalog;
pub mod fault;
pub mod gpu;
pub mod link;
pub mod memory;
pub mod ssd;
pub mod system;
pub mod time;

pub use allocator::{AllocatorStats, CachingAllocator};
pub use arena::{ArenaStats, BufferArena, PinnedSlab, MIN_SLAB_BYTES};
pub use fault::{FaultKind, FaultLog, FaultPlan, FaultRule, FaultTrigger};
pub use gpu::GpuSpec;
pub use link::{Channel, TransferObserver};
pub use memory::{FootprintPoint, GpuMemory, MemoryReport, PeakObserver};
pub use ssd::{Raid0, SsdSpec, WearMeter};
pub use system::{OffloadPath, SystemConfig};
pub use time::{SimClock, SimTime};
