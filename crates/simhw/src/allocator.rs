//! A CUDA-caching-allocator model.
//!
//! PyTorch's allocator never returns memory to the driver: freed blocks
//! stay cached in their pool and are reused by best fit, so the
//! *reserved* footprint is a high-water mark that fragmentation can
//! inflate well beyond the allocated bytes. The paper keeps PyTorch's
//! caching allocator in place (Section 3.1) and Figure 7 counts its
//! events; this model reproduces the reserved-vs-allocated distinction
//! so placement strategies can be compared on both.
//!
//! Model rules (matching the real allocator's visible behaviour):
//! * requests < 1 MiB round up to 512 B multiples ("small pool");
//!   requests ≥ 1 MiB round up to 2 MiB multiples ("large pool");
//! * a free block is reused for any request of the same pool whose
//!   rounded size fits; the block may be *split*, leaving a remainder
//!   block in the pool (large pool only, like the real allocator);
//! * nothing is ever returned to the device: `reserved` only grows.
//!
//! Each pool keeps its cached blocks as a size → count multiset, a `Vec`
//! sorted by size: best fit is the first size at or above the request
//! with a block cached, found by binary search, and a request or a free
//! costs O(log n) in the distinct cached sizes, plus a shift of the
//! entries above when a size comes or goes (and, in the small pool, the
//! emptied sizes it steps over). The sizes are few: across every exhibit
//! and benchmark workload a replay's small pool held at most 8 distinct
//! sizes at once, its large pool 15 and its live counts 14, so a shift
//! moves at most 15 entries. A `Vec` keeps its buffer when cleared, so a
//! replay kept from step to step ([`AllocatorReplay`]) reuses it.

const SMALL_GRAIN: u64 = 512;
const SMALL_LIMIT: u64 = 1 << 20;
const LARGE_GRAIN: u64 = 2 << 20;

/// Rounds a request to its pool granularity.
pub(crate) fn rounded_size(bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    if bytes < SMALL_LIMIT {
        bytes.div_ceil(SMALL_GRAIN) * SMALL_GRAIN
    } else {
        bytes.div_ceil(LARGE_GRAIN) * LARGE_GRAIN
    }
}

/// Allocator statistics after a replayed event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocatorStats {
    /// Bytes currently handed out to live tensors (rounded sizes).
    pub(crate) allocated: u64,
    /// Peak of `allocated`.
    #[cfg(test)]
    pub(crate) allocated_peak: u64,
    /// Bytes reserved from the device (never shrinks).
    pub reserved: u64,
    /// Cache hits (requests served from cached blocks).
    #[cfg(test)]
    pub(crate) reuses: u64,
    /// Requests that had to reserve new device memory.
    #[cfg(test)]
    pub(crate) fresh_allocations: u64,
    /// Large-pool splits performed.
    #[cfg(test)]
    pub(crate) splits: u64,
}

/// A size → count multiset: `(size, count)` entries sorted by size.
type Counts = Vec<(u64, u32)>;

/// The count of `size` in `counts`, inserted at zero if absent.
fn count_of(counts: &mut Counts, size: u64) -> &mut u32 {
    let i = match counts.binary_search_by_key(&size, |&(s, _)| s) {
        Ok(i) => i,
        Err(i) => {
            counts.insert(i, (size, 0));
            i
        }
    };
    &mut counts[i].1
}

/// Caches one more block of `size`.
fn put(pool: &mut Counts, size: u64) {
    *count_of(pool, size) += 1;
}

/// Takes the smallest cached block that holds `size` (best fit). In the
/// small pool a size whose last block is taken keeps its entry at zero:
/// its sizes are few (512 B steps below 1 MiB), and a pool that empties
/// and refills then does not insert its sizes again. Large-pool splits
/// leave sizes of every kind, so there an emptied size goes.
fn take(pool: &mut Counts, size: u64) -> Option<u64> {
    let from = pool.partition_point(|&(s, _)| s < size);
    let i = from + pool[from..].iter().position(|&(_, n)| n > 0)?;
    let (block, count) = &mut pool[i];
    let block = *block;
    *count -= 1;
    if *count == 0 && block >= SMALL_LIMIT {
        pool.remove(i);
    }
    Some(block)
}

/// The caching allocator. Feed it the same alloc/free stream a
/// [`crate::GpuMemory`] sees (sizes in requested bytes) and read the
/// reserved footprint back.
#[derive(Debug, Default, Clone)]
pub(crate) struct CachingAllocator {
    small_free: Counts,
    large_free: Counts,
    stats: AllocatorStats,
}

impl CachingAllocator {
    /// Current statistics.
    pub(crate) fn stats(&self) -> AllocatorStats {
        self.stats
    }

    /// Serves an allocation request; returns the size of the block the
    /// caller got, which it must pass back to [`CachingAllocator::free`]:
    /// the rounded request, or a larger cached small-pool block handed
    /// out whole.
    pub(crate) fn alloc(&mut self, bytes: u64) -> u64 {
        let size = rounded_size(bytes);
        if size == 0 {
            return 0;
        }
        let pool = if size < SMALL_LIMIT {
            &mut self.small_free
        } else {
            &mut self.large_free
        };
        let got = match take(pool, size) {
            Some(block) => {
                #[cfg(test)]
                {
                    self.stats.reuses += 1;
                }
                // Large blocks split; the remainder stays cached. Small
                // blocks are handed out whole (slack is internal), and
                // the whole block comes back at the free.
                let got = if size >= SMALL_LIMIT && block > size {
                    put(pool, block - size);
                    #[cfg(test)]
                    {
                        self.stats.splits += 1;
                    }
                    size
                } else {
                    block
                };
                self.stats.allocated += got;
                got
            }
            None => {
                #[cfg(test)]
                {
                    self.stats.fresh_allocations += 1;
                }
                self.stats.reserved += size;
                self.stats.allocated += size;
                size
            }
        };
        #[cfg(test)]
        {
            self.stats.allocated_peak = self.stats.allocated_peak.max(self.stats.allocated);
        }
        got
    }

    /// Returns a block (by the size [`CachingAllocator::alloc`] reported)
    /// to its pool's cache.
    pub(crate) fn free(&mut self, rounded: u64) {
        if rounded == 0 {
            return;
        }
        self.stats.allocated = self.stats.allocated.saturating_sub(rounded);
        if rounded < SMALL_LIMIT {
            put(&mut self.small_free, rounded);
        } else {
            put(&mut self.large_free, rounded);
        }
    }

    /// Starts over from `base` bytes allocated and reserved, with no
    /// block cached; the pools keep their buffers.
    fn restart(&mut self, base: u64) {
        self.small_free.clear();
        self.large_free.clear();
        self.stats = AllocatorStats::default();
        self.stats.allocated = base;
        self.stats.reserved = base;
        #[cfg(test)]
        {
            self.stats.allocated_peak = base;
        }
    }
}

/// The allocator replay a memory tracker keeps from step to step: the
/// pools, the live counts and the note of larger blocks. Each replay
/// starts them over but keeps their buffers, so a warm replay whose
/// stream caches no new size allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct AllocatorReplay {
    alloc: CachingAllocator,
    /// Request size → live allocations of it. A count that falls to zero
    /// keeps its entry: the next request of that size reuses it.
    live: Counts,
    /// (request size, place in its count, block) of each live allocation
    /// holding a larger block than its request rounds to, searched from
    /// the end. A warm `sym_deep_tiered` step holds one at a time; its
    /// profiling steps reach 242.
    larger: Vec<(u64, u32, u64)>,
}

impl AllocatorReplay {
    /// Replays a `(bytes, is_free)` stream where a free retires the
    /// latest live allocation of the same request size, if there is one,
    /// and is ignored otherwise; returns the final statistics. `base`
    /// bytes — what the device held before the stream — start out both
    /// allocated and reserved; the stream's frees never return them.
    /// Nothing carries over from an earlier replay but buffer capacity.
    ///
    /// Almost every allocation holds the block its request rounds to, so
    /// live allocations are kept as a count per request size. A small
    /// request served a larger cached block is the exception: it is
    /// noted aside in `larger` with its place in its size's stack, and a
    /// free that retires it returns that block.
    pub(crate) fn replay(
        &mut self,
        events: impl IntoIterator<Item = (u64, bool)>,
        base: u64,
    ) -> AllocatorStats {
        let AllocatorReplay {
            alloc,
            live,
            larger,
        } = self;
        alloc.restart(base);
        live.clear();
        larger.clear();
        for (bytes, is_free) in events {
            if is_free {
                let Ok(i) = live.binary_search_by_key(&bytes, |&(s, _)| s) else {
                    continue;
                };
                let n = &mut live[i].1;
                let Some(at) = n.checked_sub(1) else {
                    continue;
                };
                *n = at;
                let found = larger.iter().rposition(|&(b, i, _)| b == bytes && i == at);
                let block = match found {
                    Some(i) => larger.swap_remove(i).2,
                    None => rounded_size(bytes),
                };
                alloc.free(block);
            } else {
                let block = alloc.alloc(bytes);
                let n = count_of(live, bytes);
                if block != rounded_size(bytes) {
                    larger.push((bytes, *n, block));
                }
                *n += 1;
            }
        }
        alloc.stats()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_matches_pool_granularity() {
        assert_eq!(rounded_size(0), 0);
        assert_eq!(rounded_size(1), 512);
        assert_eq!(rounded_size(512), 512);
        assert_eq!(rounded_size(513), 1024);
        assert_eq!(rounded_size((1 << 20) - 1), 1 << 20);
        assert_eq!(rounded_size(1 << 20), 2 << 20);
        assert_eq!(rounded_size((2 << 20) + 1), 4 << 20);
    }

    #[test]
    fn freed_blocks_are_reused_not_rereserved() {
        let mut a = CachingAllocator::default();
        let b1 = a.alloc(3 << 20);
        a.free(b1);
        let _b2 = a.alloc(3 << 20);
        let s = a.stats();
        assert_eq!(s.fresh_allocations, 1);
        assert_eq!(s.reuses, 1);
        assert_eq!(s.reserved, 4 << 20); // 3 MiB rounds to 4 MiB
    }

    #[test]
    fn reserved_never_shrinks() {
        let mut a = CachingAllocator::default();
        let blocks: Vec<u64> = (1..=8).map(|i| a.alloc(i << 20)).collect();
        let reserved = a.stats().reserved;
        for b in blocks {
            a.free(b);
        }
        assert_eq!(a.stats().reserved, reserved);
        assert_eq!(a.stats().allocated, 0);
    }

    #[test]
    fn large_blocks_split_and_remainder_stays_cached() {
        let mut a = CachingAllocator::default();
        let big = a.alloc(10 << 20);
        a.free(big);
        let _small = a.alloc(2 << 20);
        let s = a.stats();
        assert_eq!(s.splits, 1);
        assert_eq!(s.reserved, 10 << 20);
        assert_eq!(s.allocated, 2 << 20);
        // Remainder is reusable.
        let mut a2 = a.clone();
        let _ = a2.alloc(8 << 20);
        assert_eq!(a2.stats().fresh_allocations, 1, "no new reservation");
    }

    #[test]
    fn mismatched_size_churn_inflates_reserved() {
        // Alternating odd sizes defeat reuse: reserved grows beyond the
        // allocated peak — the fragmentation effect real recompute runs
        // suffer.
        let mut a = CachingAllocator::default();
        let mut last = None;
        for i in 0..16u64 {
            if let Some(b) = last.take() {
                a.free(b);
            }
            last = Some(a.alloc((3 + 2 * i) << 20));
        }
        let s = a.stats();
        assert!(2 * s.reserved > 3 * s.allocated_peak, "{s:?}");
    }

    #[test]
    fn replay_pairs_frees_with_requests() {
        let stats = AllocatorReplay::default().replay(
            [
                (4 << 20, false),
                (4 << 20, false),
                (4 << 20, true),
                (4 << 20, false),
            ],
            0,
        );
        assert_eq!(stats.fresh_allocations, 2);
        assert_eq!(stats.reuses, 1);
        assert_eq!(stats.allocated, 8 << 20);
    }

    #[test]
    fn steady_state_same_size_churn_has_no_overhead() {
        let mut events = Vec::new();
        for _ in 0..100 {
            events.push((8 << 20, false));
            events.push((8 << 20, true));
        }
        let stats = AllocatorReplay::default().replay(events, 0);
        assert_eq!(stats.reserved, 8 << 20);
        assert_eq!(stats.reserved, stats.allocated_peak);
    }
}
