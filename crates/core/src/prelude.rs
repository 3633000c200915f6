//! Everything a typical offloading program needs, in one import.
//!
//! Consolidates the cross-crate re-exports that sessions, examples and
//! tests previously imported piecemeal: the cache layer from this crate,
//! the observability layer from `ssdtrain-trace`, and the hardware model
//! from `ssdtrain-simhw`. The crate root re-exports this module
//! wholesale, so `ssdtrain::TensorCache` and
//! `ssdtrain::prelude::TensorCache` are the same item.
//!
//! ```
//! use ssdtrain::prelude::*;
//!
//! let clock = SimClock::new();
//! let io = IoEngine::new(clock, 1e9, 1e9);
//! let sink = TraceSink::enabled();
//! io.set_trace(sink.clone());
//! io.submit_load(1_000_000);
//! assert!(!sink.is_empty());
//! ```

pub use crate::adaptive::{AdaptivePlan, ModuleProfile, StepProfile};
pub use crate::cache::{StageHint, StageScope, StateSlot, TensorCache};
pub use crate::coalesce::{CoalesceCounts, SealedSegment, SegmentEntry, WriteCoalescer};
pub use crate::config::{PlacementStrategy, RecoveryPolicy, TensorCacheConfig};
pub use crate::costmodel::{CostModel, TierCost};
pub use crate::error::OffloadError;
pub use crate::fault::FaultyTarget;
pub use crate::io::{IoEngine, TierLink};
pub use crate::placement::OffloadClass;
pub use crate::stats::{ClassCounters, OffloadStats};
pub use crate::target::{BatchItem, CpuTarget, OffloadTarget, SsdTarget};
pub use crate::tier::{Tier, TierCounters, TierId, TierPlacement, TierRole, TierSpec, TierStack};

pub use ssdtrain_trace::{
    chrome_trace_json, text_summary, ArgValue, EventKind, HistogramSummary, LinkTraceBridge,
    MemoryTraceBridge, MetricValue, MetricsRegistry, TraceCategory, TraceEvent, TraceSink,
};

pub use ssdtrain_simhw::{
    ArenaStats, BufferArena, Channel, FaultKind, FaultLog, FaultPlan, FaultTrigger, FootprintPoint,
    GpuMemory, GpuSpec, MemoryReport, PeakObserver, PinnedSlab, SimClock, SimTime, SystemConfig,
    TransferObserver, WearMeter,
};
