//! # ssdtrain-simhw
//!
//! Hardware timing substrate for the SSDTrain reproduction: everything the
//! paper measured on real silicon — an A100's kernel throughput, the GPU
//! memory allocator's footprint timeline, the PCIe and SSD bandwidths an
//! offload crosses, and NVMe SSD endurance — modelled deterministically
//! so that paper-scale training steps can be *timed* while being
//! executed symbolically.
//!
//! The model is deliberately simple and documented per component:
//!
//! * [`GpuSpec`] — roofline kernel timing: `max(flops/throughput,
//!   bytes/bandwidth) + launch overhead`.
//! * [`GpuMemory`] — a [`ssdtrain_tensor::MemTracker`] recording every
//!   allocation/free with its simulated timestamp, reconstructing the
//!   paper's Figure 7 memory-footprint curve and per-class peaks.
//! * [`Channel`] — a standalone FIFO bandwidth resource: jobs queue and
//!   each submit reports the job's start/finish. No training step books
//!   on it: offload transfers are priced by `ssdtrain::IoEngine` over
//!   the link bandwidths [`SystemConfig`] derives.
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

#![deny(missing_docs, clippy::allow_attributes_without_reason)]
// A `pub` item is one another crate calls: inside a private module it
// must be re-exported, or it says `pub(crate)` (DESIGN.md §2).
#![deny(unreachable_pub)]
// Library code returns typed errors instead of panicking (DESIGN.md §7).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

mod allocator;
mod arena;
pub mod catalog;
mod fault;
mod gpu;
mod link;
mod memory;
pub mod ssd;
pub mod system;
mod time;

pub use allocator::AllocatorStats;
pub use arena::{ArenaStats, BufferArena, PinnedSlab};
pub use fault::{FaultKind, FaultLog, FaultPlan, FaultTrigger};
pub use gpu::GpuSpec;
pub use link::Channel;
pub use memory::{FootprintPoint, GpuMemory, PeakObserver, StepMemory};
pub use ssd::{Raid0, SsdSpec, WearMeter};
pub use system::SystemConfig;
pub use time::{SimClock, SimTime};
