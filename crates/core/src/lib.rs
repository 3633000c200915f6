//! # ssdtrain — SSD-based activation offloading for LLM training
//!
//! This crate is the Rust reproduction of the system the paper calls
//! **TBA** (published at DAC 2025 as **SSDTrain**): a tensor cache that
//! intercepts the autograd engine's saved-tensor pack/unpack hooks,
//! streams activations to NVMe SSDs during forward propagation, and
//! prefetches them back just before backward propagation needs them —
//! fully overlapping the I/O with computation so that activation memory
//! is reclaimed at **no step-time cost**.
//!
//! Components map one-to-one onto the paper's design (Section 3):
//!
//! | paper | here |
//! |---|---|
//! | tensor cache (Alg. 2) | [`TensorCache`] |
//! | `get_id()` dedup (§3.3.1) | [`id::tensor_key`] — first-seen stamp on the *storage* + shape |
//! | parameter exclusion (§3.3.1) | [`TensorCache::register_parameter`] |
//! | store/load thread pools (§3.3.2) | [`IoEngine`]: a write FIFO and a demand-first read queue on the simulated PCIe link |
//! | data forwarding (§3.3.2) | in-flight stores are returned from memory and cancelled if still queued |
//! | adaptive offloading (§3.3.3, Fig. 8) | [`adaptive`] — profile a step, keep the last modules resident |
//! | SSD / CPU offloader (§3.1, Fig. 5) | [`SsdTarget`], [`CpuTarget`] |
//! | keep/offload decision (Alg. 2 ll. 12, 15) | the head of `TensorCache`'s store path: parameter → threshold → backward-phase → kept-module |
//! | tiered backends (Fig. 5 "future work") | [`TierStack`] — DRAM front tier spilling to the SSD array |
//! | scheduler hints (Alg. 1) | [`TensorCache::prefetch_last_module`], [`TensorCache::wait_io`], micro-batch switching |
//!
//! The placement strategies of the ROK curve (Section 4.3) are selected
//! with [`PlacementStrategy`].

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

//! Failure handling: offload-target I/O errors flow through
//! [`RecoveryPolicy`] instead of panicking — see [`OffloadError`]
//! and the [`FaultyTarget`] decorator driving deterministic
//! fault-injection experiments.

pub mod adaptive;
mod cache;
pub mod coalesce;
pub mod config;
pub mod costmodel;
mod error;
mod fault;
pub mod id;
pub mod io;
mod placement;
pub mod prelude;
pub mod stats;
mod target;
pub mod tier;

/// Maps and sets hashed with one fixed seed, so what the cache does in
/// their order is the same in every process (DESIGN §7): their keys are
/// internal ids, never outside input.
type FixedState = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
pub(crate) type HashMap<K, V> = std::collections::HashMap<K, V, FixedState>;
pub(crate) type HashSet<T> = std::collections::HashSet<T, FixedState>;

/// The observability layer (re-exported `ssdtrain-trace` crate): the
/// trace sink, its two exporters and the step table `explain` reads
/// back from a trace.
pub use ssdtrain_trace as trace;

// The crate root re-exports exactly the prelude — one list to maintain.
pub use prelude::*;
