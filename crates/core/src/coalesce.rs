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
//! Invariants (pinned by the proptest suite), per tier and per
//! [`OffloadClass`]:
//!
//! * **conservation** — `staged == sealed + evicted + open`: every
//!   staged byte is in exactly one of the sealed segments, the evicted
//!   set (members consumed before their segment filled, served from
//!   memory like a forwarding hit), or the still-open segment.
//! * **identity** — a sealed segment's entries sum to its byte total,
//!   and a record id appears in at most one open or sealed segment.
//!
//! The coalescer is a passive data structure: the cache drives staging,
//! eviction and sealing, owns the sealed-segment lifecycle (submit →
//! commit / recover), and holds the lock. With `segment_bytes == 0`
//! there is nothing to wait for: the cache seals every record the
//! moment it is staged, a segment of one, and never stages it here.
// ssdtrain-lint: hot-path

use crate::placement::OffloadClass;
use crate::tier::TierId;
use std::collections::HashMap;

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
    pub id: u64,
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

/// Byte and segment counters kept per tier, per class, and globally.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoalesceCounts {
    /// Bytes ever staged into segments.
    pub staged_bytes: u64,
    /// Bytes sealed into submitted segments.
    pub sealed_bytes: u64,
    /// Bytes evicted from open segments before sealing.
    pub evicted_bytes: u64,
    /// Segments sealed.
    pub segments: u64,
    /// Members carried by sealed segments.
    pub entries_sealed: u64,
}

#[derive(Debug, Default)]
struct OpenSegment {
    entries: Vec<SegmentEntry>,
    bytes: u64,
}

/// The staging buffer between pack and the store queues (see module
/// docs). One open segment per tier; sealing is driven by the cache at
/// the size threshold, at stage-exit drains, and at flush.
#[derive(Debug)]
pub struct WriteCoalescer {
    segment_bytes: u64,
    next_id: u64,
    open: HashMap<TierId, OpenSegment>,
    total: CoalesceCounts,
    by_tier: HashMap<TierId, CoalesceCounts>,
    by_class: HashMap<usize, CoalesceCounts>,
}

impl WriteCoalescer {
    /// A coalescer sealing segments at `segment_bytes` (0 = the caller
    /// seals on every stage and stages nothing here).
    pub fn new(segment_bytes: u64) -> WriteCoalescer {
        WriteCoalescer {
            segment_bytes,
            next_id: 0,
            open: HashMap::new(),
            total: CoalesceCounts::default(),
            by_tier: HashMap::new(),
            by_class: HashMap::new(),
        }
    }

    /// Whether staging is active (`segment_bytes > 0`).
    pub fn enabled(&self) -> bool {
        self.segment_bytes > 0
    }

    /// The configured segment size in bytes.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
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
        self.total.staged_bytes += bytes;
        self.by_tier.entry(tier).or_default().staged_bytes += bytes;
        self.by_class.entry(class.index()).or_default().staged_bytes += bytes;
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
        self.total.evicted_bytes += entry.bytes;
        self.by_tier.entry(tier).or_default().evicted_bytes += entry.bytes;
        self.by_class
            .entry(entry.class.index())
            .or_default()
            .evicted_bytes += entry.bytes;
        Some(entry)
    }

    /// Seals the tier's open segment regardless of fill level (stage
    /// exits and flushes submit partial segments so no staged byte
    /// outlives the forward pass). `None` when nothing is staged there.
    pub fn seal_tier(&mut self, tier: TierId) -> Option<SealedSegment> {
        let open = self.open.get_mut(&tier)?;
        if open.entries.is_empty() {
            return None;
        }
        let entries = std::mem::take(&mut open.entries);
        let bytes = std::mem::replace(&mut open.bytes, 0);
        let id = self.next_id;
        self.next_id += 1;
        self.total.sealed_bytes += bytes;
        self.total.segments += 1;
        self.total.entries_sealed += entries.len() as u64;
        {
            let t = self.by_tier.entry(tier).or_default();
            t.sealed_bytes += bytes;
            t.segments += 1;
            t.entries_sealed += entries.len() as u64;
        }
        for e in &entries {
            let c = self.by_class.entry(e.class.index()).or_default();
            c.sealed_bytes += e.bytes;
            c.entries_sealed += 1;
        }
        Some(SealedSegment { id, tier, entries })
    }

    /// Seals every non-empty open segment, in tier order.
    pub fn seal_all(&mut self) -> Vec<SealedSegment> {
        let mut tiers: Vec<TierId> = self
            .open
            .iter()
            .filter(|(_, o)| !o.entries.is_empty())
            .map(|(t, _)| *t)
            .collect();
        tiers.sort();
        let mut out = Vec::with_capacity(tiers.len());
        for tier in tiers {
            if let Some(seg) = self.seal_tier(tier) {
                out.push(seg);
            }
        }
        out
    }

    /// Bytes currently staged in the tier's open segment.
    pub fn open_bytes(&self, tier: TierId) -> u64 {
        self.open.get(&tier).map(|o| o.bytes).unwrap_or(0)
    }

    /// Bytes staged across every open segment.
    pub fn total_open_bytes(&self) -> u64 {
        self.open.values().map(|o| o.bytes).sum()
    }

    /// Whether `record` is staged in the tier's open segment.
    pub fn is_staged(&self, tier: TierId, record: u64) -> bool {
        self.open
            .get(&tier)
            .is_some_and(|o| o.entries.iter().any(|e| e.record == record))
    }

    /// Global conservation counters.
    pub fn counts(&self) -> CoalesceCounts {
        self.total
    }

    /// Conservation counters for one tier.
    pub fn tier_counts(&self, tier: TierId) -> CoalesceCounts {
        self.by_tier.get(&tier).copied().unwrap_or_default()
    }

    /// Conservation counters for one class.
    pub fn class_counts(&self, class: OffloadClass) -> CoalesceCounts {
        self.by_class
            .get(&class.index())
            .copied()
            .unwrap_or_default()
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
        assert_eq!(c.counts(), CoalesceCounts::default());
    }

    #[test]
    fn segment_seals_at_the_size_threshold() {
        let t = tier0();
        let mut c = WriteCoalescer::new(100);
        assert!(c.stage(t, 1, 40, OffloadClass::Activation).is_none());
        assert!(c.stage(t, 2, 40, OffloadClass::Activation).is_none());
        assert_eq!(c.open_bytes(t), 80);
        let seg = c.stage(t, 3, 40, OffloadClass::Activation).expect("seal");
        assert_eq!(seg.total_bytes(), 120);
        assert_eq!(seg.entries.len(), 3);
        assert_eq!(seg.entries[2].record, 3);
        assert_eq!(c.open_bytes(t), 0);
        let counts = c.counts();
        assert_eq!(counts.staged_bytes, 120);
        assert_eq!(counts.sealed_bytes, 120);
        assert_eq!(counts.segments, 1);
    }

    #[test]
    fn tiers_keep_separate_open_segments() {
        let (a, b) = two_tiers();
        let mut c = WriteCoalescer::new(1000);
        c.stage(a, 1, 100, OffloadClass::Activation);
        c.stage(b, 2, 200, OffloadClass::Gradient);
        assert_eq!(c.open_bytes(a), 100);
        assert_eq!(c.open_bytes(b), 200);
        let sealed = c.seal_all();
        assert_eq!(sealed.len(), 2);
        assert_eq!(sealed[0].tier, a, "seal_all is tier-ordered");
        assert_eq!(c.tier_counts(a).sealed_bytes, 100);
        assert_eq!(c.tier_counts(b).sealed_bytes, 200);
        assert_eq!(c.class_counts(OffloadClass::Gradient).sealed_bytes, 200);
    }

    #[test]
    fn eviction_keeps_conservation() {
        let t = tier0();
        let mut c = WriteCoalescer::new(1000);
        c.stage(t, 1, 100, OffloadClass::Activation);
        c.stage(t, 2, 50, OffloadClass::Activation);
        assert!(c.is_staged(t, 2));
        let e = c.evict(t, 2).expect("staged");
        assert_eq!(e.bytes, 50);
        assert!(!c.is_staged(t, 2));
        assert!(c.evict(t, 2).is_none(), "double eviction is inert");
        let seg = c.seal_tier(t).expect("one member left");
        assert_eq!(seg.total_bytes(), 100);
        let counts = c.counts();
        assert_eq!(
            counts.staged_bytes,
            counts.sealed_bytes + counts.evicted_bytes + c.total_open_bytes()
        );
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
    fn sealing_an_empty_tier_returns_none() {
        let t = tier0();
        let mut c = WriteCoalescer::new(10);
        assert!(c.seal_tier(t).is_none());
        assert!(c.seal_all().is_empty());
    }
}
