//! Write coalescer: merges small tensor stores into large sequential
//! segments before they reach the [`crate::IoEngine`] queues.
//!
//! The paper's SSD write path stays dense because activations leave the
//! GPU as large sequential writes; a store job per tensor re-introduces
//! exactly the per-operation overheads (submission cost, FTL mapping
//! churn, partial erase-block programs) the design engineers away. The
//! coalescer sits between `TensorCache::pack` and the per-tier store
//! queues: packed tensors are *staged* into the open segment of their
//! placement tier, and when the segment reaches the configured size it
//! *seals* — one I/O job, one device write operation
//! ([`crate::OffloadTarget::write_batch`]) — while the per-segment index
//! keeps every member's identity for loads, recovery and tier
//! accounting.
//!
//! Invariants (checked over the returned segments and entries by
//! `tests/proptest_invariants.rs`):
//!
//! * **conservation** — every staged byte comes back exactly once: in a
//!   sealed segment, as an evicted entry (a member consumed before its
//!   segment filled, served from memory like a forwarding hit), or in
//!   the still-open segment, which [`WriteCoalescer::seal_all`] empties.
//! * **identity** — a sealed entry carries the tier and class it was
//!   staged with, and a record id appears in at most one open or sealed
//!   segment.
//!
//! The coalescer is a passive data structure: the cache drives staging,
//! eviction and sealing, owns the sealed-segment lifecycle (submit →
//! commit / recover), and holds the lock. With `segment_bytes == 0`
//! there is nothing to wait for: the cache seals every record the
//! moment it is staged, a segment of one, and never stages it here.

use crate::placement::OffloadClass;
use crate::tier::TierId;
use crate::HashMap;
use ssdtrain_tensor::Spares;

/// One member of a segment: a staged record and its payload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// The cache-internal record id of the staged tensor.
    pub record: u64,
    /// Payload bytes the record contributes to the segment.
    pub bytes: u64,
    /// Traffic class the bytes are accounted under.
    pub class: OffloadClass,
}

/// A sealed segment, ready for one batched store: the per-segment index
/// that keeps member identity through the coalesced path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedSegment {
    /// Monotonic segment id (unique per coalescer).
    pub(crate) id: u64,
    /// The tier the whole segment lands on.
    pub tier: TierId,
    /// Members in staging order.
    pub entries: Vec<SegmentEntry>,
}

impl SealedSegment {
    /// Sum of the members' payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }
}

#[derive(Debug, Default)]
struct OpenSegment {
    entries: Vec<SegmentEntry>,
    bytes: u64,
}

/// The staging buffer between pack and the store queues (see module
/// docs). One open segment per tier; sealing is driven by the cache at
/// the size threshold, at stage-exit drains, and at flush.
#[derive(Debug, Default)]
pub struct WriteCoalescer {
    segment_bytes: u64,
    next_id: u64,
    open: HashMap<TierId, OpenSegment>,
    /// Member lists handed back by [`WriteCoalescer::recycle`], emptied,
    /// for the next open segments to fill.
    spare: Spares<Vec<SegmentEntry>>,
}

impl WriteCoalescer {
    /// A coalescer sealing segments at `segment_bytes` (0 = the caller
    /// seals on every stage and stages nothing here).
    pub fn new(segment_bytes: u64) -> WriteCoalescer {
        WriteCoalescer {
            segment_bytes,
            ..WriteCoalescer::default()
        }
    }

    /// Whether staging is active (`segment_bytes > 0`).
    pub(crate) fn enabled(&self) -> bool {
        self.segment_bytes > 0
    }

    /// Stages a packed record into its tier's open segment. Returns the
    /// sealed segment when this staging filled it to the threshold.
    /// With `segment_bytes == 0` nothing is staged and `None` comes
    /// back: the caller seals the record on its own.
    pub fn stage(
        &mut self,
        tier: TierId,
        record: u64,
        bytes: u64,
        class: OffloadClass,
    ) -> Option<SealedSegment> {
        if !self.enabled() {
            return None;
        }
        let open = self.open.entry(tier).or_default();
        open.entries.push(SegmentEntry {
            record,
            bytes,
            class,
        });
        open.bytes += bytes;
        if open.bytes >= self.segment_bytes {
            self.seal_tier(tier)
        } else {
            None
        }
    }

    /// Removes a staged record from its tier's open segment (the record
    /// was consumed, forwarded or released before the segment filled).
    /// Returns its entry, or `None` when the record is not staged there.
    pub fn evict(&mut self, tier: TierId, record: u64) -> Option<SegmentEntry> {
        let open = self.open.get_mut(&tier)?;
        let pos = open.entries.iter().position(|e| e.record == record)?;
        let entry = open.entries.remove(pos);
        open.bytes -= entry.bytes;
        Some(entry)
    }

    /// Seals the tier's open segment regardless of fill level (stage
    /// exits and flushes submit partial segments so no staged byte
    /// outlives the forward pass). `None` when nothing is staged there.
    pub(crate) fn seal_tier(&mut self, tier: TierId) -> Option<SealedSegment> {
        let open = self.open.get_mut(&tier)?;
        if open.entries.is_empty() {
            return None;
        }
        let fresh = self.spare.take().unwrap_or_default();
        let entries = std::mem::replace(&mut open.entries, fresh);
        open.bytes = 0;
        let id = self.next_id;
        self.next_id += 1;
        Some(SealedSegment { id, tier, entries })
    }

    /// Seals the open segment of the frontmost tier ahead of `tier` that
    /// holds anything, or returns `None`. Placement just spilled past
    /// those tiers, so they are full and their segments cannot grow;
    /// call until `None` to seal them all.
    pub(crate) fn seal_ahead_of(&mut self, tier: TierId) -> Option<SealedSegment> {
        self.seal_front(|t| t < tier)
    }

    /// Seals the open segment of the frontmost tier that holds anything,
    /// or returns `None`: call until `None` to seal them all, in tier
    /// order, without collecting them.
    pub(crate) fn seal_next(&mut self) -> Option<SealedSegment> {
        self.seal_front(|_| true)
    }

    /// Seals every non-empty open segment, in tier order.
    pub fn seal_all(&mut self) -> Vec<SealedSegment> {
        std::iter::from_fn(|| self.seal_next()).collect()
    }

    /// Takes back a submitted segment's member list, emptied, so a later
    /// segment fills it instead of a fresh one.
    pub(crate) fn recycle(&mut self, seg: SealedSegment) {
        let mut entries = seg.entries;
        entries.clear();
        self.spare.give(entries);
    }

    /// Seals the open segment of the frontmost tier `at` admits that
    /// holds anything.
    fn seal_front(&mut self, at: impl Fn(TierId) -> bool) -> Option<SealedSegment> {
        let open = self
            .open
            .iter()
            .filter(|(t, o)| at(**t) && !o.entries.is_empty());
        let front = open.map(|(t, _)| *t).min()?;
        self.seal_tier(front)
    }

    /// Bytes staged across every open segment.
    pub fn total_open_bytes(&self) -> u64 {
        self.open.values().map(|o| o.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::CpuTarget;
    use crate::tier::TierStack;
    use std::sync::Arc;

    fn tier0() -> TierId {
        TierStack::single(Arc::new(CpuTarget::new(1 << 20))).tier_ids()[0]
    }

    fn two_tiers() -> (TierId, TierId) {
        let stack = TierStack::new(vec![
            crate::tier::Tier::new("a", Arc::new(CpuTarget::new(1 << 20)), 0),
            crate::tier::Tier::new("b", Arc::new(CpuTarget::new(1 << 20)), 1),
        ]);
        let ids = stack.tier_ids();
        (ids[0], ids[1])
    }

    #[test]
    fn disabled_coalescer_stages_nothing() {
        let mut c = WriteCoalescer::new(0);
        assert!(!c.enabled());
        assert!(c.stage(tier0(), 1, 100, OffloadClass::Activation).is_none());
        assert_eq!(c.total_open_bytes(), 0);
        assert!(c.seal_all().is_empty());
    }

    #[test]
    fn segment_seals_at_the_size_threshold() {
        let t = tier0();
        let mut c = WriteCoalescer::new(100);
        assert!(c.stage(t, 1, 40, OffloadClass::Activation).is_none());
        assert!(c.stage(t, 2, 40, OffloadClass::Activation).is_none());
        assert_eq!(c.total_open_bytes(), 80);
        let seg = c.stage(t, 3, 40, OffloadClass::Activation).expect("seal");
        assert_eq!(seg.total_bytes(), 120);
        assert_eq!(seg.entries.len(), 3);
        assert_eq!(seg.entries[2].record, 3);
        assert_eq!(c.total_open_bytes(), 0);
        assert!(
            c.seal_all().is_empty(),
            "the sealed segment took every byte"
        );
    }

    #[test]
    fn tiers_keep_separate_open_segments() {
        let (a, b) = two_tiers();
        let mut c = WriteCoalescer::new(1000);
        c.stage(a, 1, 100, OffloadClass::Activation);
        c.stage(b, 2, 200, OffloadClass::Gradient);
        assert_eq!(c.total_open_bytes(), 300);
        let sealed = c.seal_all();
        assert_eq!(sealed.len(), 2);
        assert_eq!(sealed[0].tier, a, "seal_all is tier-ordered");
        assert_eq!(sealed[0].total_bytes(), 100);
        assert_eq!(sealed[1].total_bytes(), 200);
        assert_eq!(sealed[1].entries[0].class, OffloadClass::Gradient);
    }

    #[test]
    fn eviction_keeps_conservation() {
        let t = tier0();
        let mut c = WriteCoalescer::new(1000);
        c.stage(t, 1, 100, OffloadClass::Activation);
        c.stage(t, 2, 50, OffloadClass::Activation);
        let e = c.evict(t, 2).expect("staged");
        assert_eq!(e.bytes, 50);
        assert_eq!(c.total_open_bytes(), 100);
        assert!(c.evict(t, 2).is_none(), "double eviction is inert");
        let seg = c.seal_tier(t).expect("one member left");
        assert_eq!(
            seg.total_bytes() + e.bytes,
            150,
            "staged = sealed + evicted"
        );
        assert_eq!(c.total_open_bytes(), 0);
    }

    #[test]
    fn segment_ids_are_unique_and_monotonic() {
        let t = tier0();
        let mut c = WriteCoalescer::new(10);
        let a = c.stage(t, 1, 10, OffloadClass::Activation).expect("seal");
        let b = c.stage(t, 2, 10, OffloadClass::Activation).expect("seal");
        assert!(b.id > a.id);
    }

    #[test]
    fn a_recycled_member_list_is_filled_again() {
        let t = tier0();
        let mut c = WriteCoalescer::new(100);
        let seal = |c: &mut WriteCoalescer, a, b| {
            c.stage(t, a, 60, OffloadClass::Activation);
            c.stage(t, b, 60, OffloadClass::Activation).expect("seal")
        };
        let first = seal(&mut c, 1, 2);
        let list = first.entries.as_ptr();
        c.recycle(first);
        // The open segment takes the recycled list when the second seals,
        // so the third segment's members sit in it.
        let _second = seal(&mut c, 3, 4);
        let third = seal(&mut c, 5, 6);
        assert_eq!(third.entries.as_ptr(), list);
        let members: Vec<u64> = third.entries.iter().map(|e| e.record).collect();
        assert_eq!(members, [5, 6]);
        assert!(c.seal_next().is_none(), "every segment sealed");
    }

    #[test]
    fn sealing_an_empty_tier_returns_none() {
        let t = tier0();
        let mut c = WriteCoalescer::new(10);
        assert!(c.seal_tier(t).is_none());
        assert!(c.seal_all().is_empty());
    }
}
