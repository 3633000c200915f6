//! The linear-scan allocator this crate shipped before its pools became
//! size → count multisets, kept as the oracle the multiset one must match
//! statistic for statistic: each pool a `Vec` of cached blocks searched
//! end to end for the best fit, and a replay that retires the latest
//! live allocation of a freed size (live allocations kept in order).

use super::{rounded_size, AllocatorStats, CachingAllocator, SMALL_LIMIT};
use proptest::prelude::*;

#[derive(Debug, Default)]
struct LinearScan {
    small_free: Vec<u64>,
    large_free: Vec<u64>,
    stats: AllocatorStats,
}

impl LinearScan {
    fn alloc(&mut self, bytes: u64) -> u64 {
        let size = rounded_size(bytes);
        if size == 0 {
            return 0;
        }
        let pool: &mut Vec<u64> = if size < SMALL_LIMIT {
            &mut self.small_free
        } else {
            &mut self.large_free
        };
        let best = pool
            .iter()
            .enumerate()
            .filter(|(_, b)| **b >= size)
            .min_by_key(|(_, b)| **b)
            .map(|(i, _)| i);
        let got = match best {
            Some(i) => {
                let block = pool.swap_remove(i);
                self.stats.reuses += 1;
                let got = if size >= SMALL_LIMIT && block > size {
                    pool.push(block - size);
                    self.stats.splits += 1;
                    size
                } else {
                    block
                };
                self.stats.allocated += got;
                got
            }
            None => {
                self.stats.fresh_allocations += 1;
                self.stats.reserved += size;
                self.stats.allocated += size;
                size
            }
        };
        self.stats.allocated_peak = self.stats.allocated_peak.max(self.stats.allocated);
        got
    }

    fn free(&mut self, rounded: u64) {
        if rounded == 0 {
            return;
        }
        self.stats.allocated = self.stats.allocated.saturating_sub(rounded);
        if rounded < SMALL_LIMIT {
            self.small_free.push(rounded);
        } else {
            self.large_free.push(rounded);
        }
    }

    fn replay(events: &[(u64, bool)]) -> AllocatorStats {
        let mut alloc = LinearScan::default();
        let mut live: Vec<(u64, u64)> = Vec::new(); // (request, block), in order
        for &(bytes, is_free) in events {
            if is_free {
                if let Some(pos) = live.iter().rposition(|(req, _)| *req == bytes) {
                    let (_, block) = live.remove(pos);
                    alloc.free(block);
                }
            } else {
                let block = alloc.alloc(bytes);
                live.push((bytes, block));
            }
        }
        alloc.stats
    }
}

/// Request sizes drawn to repeat: zero, both sides of every rounding
/// edge in both pools, and sizes whose large blocks split.
const SIZES: [u64; 16] = [
    0,
    1,
    511,
    512,
    513,
    1024,
    4000,
    (1 << 20) - 1,
    1 << 20,
    (2 << 20) + 1,
    3 << 20,
    4 << 20,
    5 << 20,
    10 << 20,
    (17 << 20) + 3,
    32 << 20,
];

/// A request size: usually one of [`SIZES`], sometimes any size up to
/// 40 MiB in either pool.
fn request() -> impl Strategy<Value = u64> {
    (0usize..20, 0u64..(1 << 20), 0u64..(40 << 20)).prop_map(|(i, small, large)| match i {
        16 | 17 => small,
        18 | 19 => large,
        _ => SIZES[i],
    })
}

/// A stream event: a free in about a third of the cases.
fn event() -> impl Strategy<Value = (u64, bool)> {
    (request(), 0u8..3).prop_map(|(bytes, kind)| (bytes, kind == 0))
}

#[test]
fn a_small_block_served_whole_comes_back_whole() {
    // A 512 B request reuses the cached 1024 B block whole; its free
    // returns the whole block, so nothing stays allocated and the block
    // serves a 1024 B request again without a new reservation.
    let events = [(1024, false), (1024, true), (512, false), (512, true)];
    let stats = CachingAllocator::replay(events);
    assert_eq!(stats.allocated, 0, "nothing is live");
    assert_eq!(stats, LinearScan::replay(&events));
    let again = CachingAllocator::replay(events.into_iter().chain([(1024, false)]));
    assert_eq!(again.fresh_allocations, 1, "the 1024 B block kept its size");
    let mut a = CachingAllocator::new();
    let first = a.alloc(1024);
    a.free(first);
    let whole = a.alloc(512);
    assert_eq!(whole, 1024, "the caller gets the block it holds");
    a.free(whole);
    assert_eq!(a.stats().allocated, 0);
}

proptest! {
    #[test]
    fn replay_matches_the_linear_scan(events in prop::collection::vec(event(), 0..300)) {
        prop_assert_eq!(
            CachingAllocator::replay(events.iter().copied()),
            LinearScan::replay(&events)
        );
    }

    #[test]
    fn alloc_and_free_match_the_linear_scan(
        ops in prop::collection::vec((request(), 0u8..3, 0usize..64), 0..300),
    ) {
        let (mut got, mut want) = (CachingAllocator::new(), LinearScan::default());
        let mut handed_out: Vec<u64> = Vec::new();
        for (bytes, kind, pick) in ops {
            match kind {
                // A free of a block handed out, or of one never handed out.
                0 if !handed_out.is_empty() => {
                    let block = handed_out.swap_remove(pick % handed_out.len());
                    got.free(block);
                    want.free(block);
                }
                0 => {
                    got.free(rounded_size(bytes));
                    want.free(rounded_size(bytes));
                }
                _ => {
                    let block = got.alloc(bytes);
                    prop_assert_eq!(block, want.alloc(bytes));
                    handed_out.push(block);
                }
            }
            prop_assert_eq!(got.stats(), want.stats);
        }
    }
}
