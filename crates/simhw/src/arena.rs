//! Pinned host buffer arena for staged offload bytes.
//!
//! Every byte that leaves the GPU for an offload tier is staged through
//! pinned (page-locked) host memory: the DMA engine needs a stable
//! physical address for the duration of the transfer. Allocating and
//! registering a fresh pinned region per store is the expensive way to
//! get one — `cudaHostAlloc`/`cudaHostRegister` cost tens of
//! microseconds and serialize on the driver — so real offloading
//! runtimes (the paper's, MemAscend's) keep a reusable arena of pinned
//! slabs sized for the tensors that recur every step.
//!
//! [`BufferArena`] models that arena deterministically:
//!
//! * **Size-classed slabs** — a request is rounded up to the next
//!   power-of-two class (min [`MIN_SLAB_BYTES`]), so a tensor that
//!   recurs each step always lands in the same class and reuses a slab
//!   from the free list instead of growing the footprint.
//! * **Virtual placement** — slabs live at virtual base addresses
//!   (fresh slabs extend a bump pointer; freed slabs are recycled at
//!   their old base). No bytes are stored; the addresses exist so
//!   aliasing is *checkable*: two live slabs never overlap.
//! * **Accounting** — cumulative acquired/released byte counters obey
//!   `acquired == released + in_use` at every instant, the per-step
//!   high-water mark exposes how much pinned memory a configuration
//!   really needs, and `footprint` (sum of all slab classes ever
//!   created) never shrinks — the gap between footprint and high-water
//!   is the cost of fragmentation across classes.
//!
//! The arena is shared (`Clone` hands out the same state, like
//! [`GpuMemory`](crate::GpuMemory)) so the cache, the coalescer and the
//! prefetcher can draw from one pinned pool.
// ssdtrain-lint: hot-path

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Smallest slab class, bytes. Requests below this round up to it.
pub const MIN_SLAB_BYTES: u64 = 4096;

/// A handle to one pinned slab held by a caller.
///
/// The handle is `Copy` — it is an address range, not an owning guard —
/// and must be returned with [`BufferArena::release`] exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PinnedSlab {
    /// Unique id of this acquisition (release is validated against it).
    pub id: u64,
    /// Virtual base address of the slab.
    pub base: u64,
    /// Size class the slab belongs to (power of two).
    pub class_bytes: u64,
    /// Bytes of payload actually staged in the slab (`<= class_bytes`).
    pub len: u64,
}

impl PinnedSlab {
    /// The half-open virtual address range `[base, base + class_bytes)`.
    pub fn range(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.class_bytes
    }
}

/// Snapshot of the arena's accounting counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArenaStats {
    /// Slabs created fresh (bump-pointer extensions).
    pub slab_allocs: u64,
    /// Slabs served from a free list instead of freshly created.
    pub slab_reuses: u64,
    /// Cumulative payload bytes acquired.
    pub acquired_bytes: u64,
    /// Cumulative payload bytes released.
    pub released_bytes: u64,
    /// Payload bytes currently held (`acquired - released`).
    pub in_use_bytes: u64,
    /// Peak of `in_use_bytes` since the last [`BufferArena::begin_step`].
    pub high_water_bytes: u64,
    /// Sum of class sizes of every slab ever created (pinned footprint;
    /// never shrinks — reuse is what keeps it bounded).
    pub footprint_bytes: u64,
}

#[derive(Debug, Default)]
struct ArenaState {
    next_id: u64,
    next_base: u64,
    /// Free slab bases per size class.
    free: HashMap<u64, Vec<u64>>,
    /// Live slabs: id → (base, class, len).
    live: HashMap<u64, (u64, u64, u64)>,
    stats: ArenaStats,
}

/// Deterministic model of a pinned host-memory arena (see module docs).
///
/// ```
/// use ssdtrain_simhw::{BufferArena, MIN_SLAB_BYTES};
///
/// let arena = BufferArena::new();
/// let a = arena.acquire(10_000).expect("non-zero request");
/// assert_eq!(a.class_bytes, 16384); // next power of two
/// let stats = arena.stats();
/// assert_eq!(stats.in_use_bytes, 10_000);
///
/// arena.release(a);
/// let b = arena.acquire(9_000).expect("non-zero request");
/// assert_eq!(b.base, a.base); // same class -> slab reused in place
/// assert_eq!(arena.stats().slab_reuses, 1);
/// assert_eq!(arena.stats().footprint_bytes, 16384); // did not grow
/// # arena.release(b);
/// # assert_eq!(arena.stats().acquired_bytes, arena.stats().released_bytes);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BufferArena {
    inner: Arc<Mutex<ArenaState>>,
}

impl BufferArena {
    /// An empty arena.
    pub fn new() -> BufferArena {
        BufferArena::default()
    }

    /// Rounds a request up to its size class: the next power of two, at
    /// least [`MIN_SLAB_BYTES`].
    pub fn class_of(len: u64) -> u64 {
        len.max(MIN_SLAB_BYTES).next_power_of_two()
    }

    /// Acquires a slab large enough for `len` payload bytes, reusing a
    /// freed slab of the same class when one exists. Returns `None` for
    /// a zero-length request (nothing to stage).
    pub fn acquire(&self, len: u64) -> Option<PinnedSlab> {
        if len == 0 {
            return None;
        }
        let class = BufferArena::class_of(len);
        let mut st = self.inner.lock();
        let base = match st.free.get_mut(&class).and_then(Vec::pop) {
            Some(base) => {
                st.stats.slab_reuses += 1;
                base
            }
            None => {
                let base = st.next_base;
                st.next_base += class;
                st.stats.slab_allocs += 1;
                st.stats.footprint_bytes += class;
                base
            }
        };
        let id = st.next_id;
        st.next_id += 1;
        st.live.insert(id, (base, class, len));
        st.stats.acquired_bytes += len;
        st.stats.in_use_bytes += len;
        st.stats.high_water_bytes = st.stats.high_water_bytes.max(st.stats.in_use_bytes);
        Some(PinnedSlab {
            id,
            base,
            class_bytes: class,
            len,
        })
    }

    /// Returns a slab to its class free list. Returns `false` (and
    /// changes nothing) if the handle is not live — a double release
    /// must not corrupt the accounting.
    pub fn release(&self, slab: PinnedSlab) -> bool {
        let mut st = self.inner.lock();
        let Some((base, class, len)) = st.live.remove(&slab.id) else {
            return false;
        };
        st.stats.released_bytes += len;
        st.stats.in_use_bytes -= len;
        st.free.entry(class).or_default().push(base);
        true
    }

    /// Starts a fresh step window: resets the high-water mark to the
    /// current in-use level. Cumulative counters and the footprint
    /// persist — slab reuse across steps is the entire point.
    pub fn begin_step(&self) {
        let mut st = self.inner.lock();
        st.stats.high_water_bytes = st.stats.in_use_bytes;
    }

    /// Snapshot of the accounting counters.
    pub fn stats(&self) -> ArenaStats {
        self.inner.lock().stats
    }

    /// Number of slabs currently held by callers.
    pub fn live_slabs(&self) -> usize {
        self.inner.lock().live.len()
    }

    /// The live slabs' address ranges (for aliasing checks in tests).
    pub fn live_ranges(&self) -> Vec<std::ops::Range<u64>> {
        self.inner
            .lock()
            .live
            .values()
            .map(|&(base, class, _)| base..base + class)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_up_to_power_of_two_classes() {
        assert_eq!(BufferArena::class_of(1), MIN_SLAB_BYTES);
        assert_eq!(BufferArena::class_of(4096), 4096);
        assert_eq!(BufferArena::class_of(4097), 8192);
        assert_eq!(BufferArena::class_of(3 << 20), 4 << 20);
    }

    #[test]
    fn zero_length_acquire_is_refused() {
        let arena = BufferArena::new();
        assert!(arena.acquire(0).is_none());
        assert_eq!(arena.stats(), ArenaStats::default());
    }

    #[test]
    fn live_slabs_never_alias() {
        let arena = BufferArena::new();
        let slabs: Vec<PinnedSlab> = (1..=8).filter_map(|i| arena.acquire(i * 1000)).collect();
        let ranges = arena.live_ranges();
        for (i, a) in ranges.iter().enumerate() {
            for b in ranges.iter().skip(i + 1) {
                assert!(a.end <= b.start || b.end <= a.start, "{a:?} vs {b:?}");
            }
        }
        for s in slabs {
            assert!(arena.release(s));
        }
    }

    #[test]
    fn release_then_acquire_reuses_the_slab_in_place() {
        let arena = BufferArena::new();
        let a = arena.acquire(10_000).expect("acquire");
        arena.release(a);
        let b = arena.acquire(12_000).expect("acquire");
        assert_eq!(b.base, a.base);
        assert_eq!(b.class_bytes, a.class_bytes);
        let st = arena.stats();
        assert_eq!(st.slab_allocs, 1);
        assert_eq!(st.slab_reuses, 1);
        assert_eq!(st.footprint_bytes, 16384);
        arena.release(b);
    }

    #[test]
    fn accounting_conserves_bytes() {
        let arena = BufferArena::new();
        let a = arena.acquire(5000).expect("acquire");
        let b = arena.acquire(7000).expect("acquire");
        let st = arena.stats();
        assert_eq!(st.acquired_bytes, 12_000);
        assert_eq!(st.in_use_bytes, 12_000);
        assert_eq!(st.high_water_bytes, 12_000);
        arena.release(a);
        let st = arena.stats();
        assert_eq!(st.released_bytes, 5000);
        assert_eq!(st.acquired_bytes, st.released_bytes + st.in_use_bytes);
        arena.release(b);
        assert_eq!(arena.live_slabs(), 0);
        let st = arena.stats();
        assert_eq!(st.acquired_bytes, st.released_bytes);
    }

    #[test]
    fn double_release_is_inert() {
        let arena = BufferArena::new();
        let a = arena.acquire(100).expect("acquire");
        assert!(arena.release(a));
        let before = arena.stats();
        assert!(!arena.release(a));
        assert_eq!(arena.stats(), before);
    }

    #[test]
    fn begin_step_resets_high_water_to_in_use() {
        let arena = BufferArena::new();
        let a = arena.acquire(10_000).expect("acquire");
        let b = arena.acquire(10_000).expect("acquire");
        arena.release(b);
        assert_eq!(arena.stats().high_water_bytes, 20_000);
        arena.begin_step();
        assert_eq!(arena.stats().high_water_bytes, 10_000);
        arena.release(a);
    }

    #[test]
    fn clones_share_one_pool() {
        let arena = BufferArena::new();
        let other = arena.clone();
        let a = arena.acquire(4096).expect("acquire");
        assert_eq!(other.live_slabs(), 1);
        other.release(a);
        assert_eq!(arena.live_slabs(), 0);
    }
}
