//! Offloading statistics collected per training step.

use crate::placement::OffloadClass;
use crate::tier::TierCounters;
use ssdtrain_tensor::Lent;
use ssdtrain_trace::StepBytes;

/// Per-[`OffloadClass`] traffic split: how much of the step's offload
/// I/O was activations vs gradients vs optimizer state. Every byte in
/// [`OffloadStats::offloaded_bytes`] / `reloaded_bytes` is attributed to
/// exactly one class (the conservation invariant the proptest suite
/// pins).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassCounters {
    /// The class label ([`OffloadClass::label`]).
    pub class: &'static str,
    /// Bytes submitted to store queues for this class (net of
    /// cancellations, like the global counter).
    pub offloaded_bytes: u64,
    /// Bytes reloaded from the tiers for this class.
    pub reloaded_bytes: u64,
    /// Store jobs submitted for this class.
    pub stores: u64,
    /// Load jobs issued for this class.
    pub loads: u64,
    /// Bytes of this class its owner kept on the GPU instead of
    /// offloading ([`crate::TensorCache::keep_state`]); never part of
    /// `offloaded_bytes`.
    pub kept_bytes: u64,
}

/// Counters the tensor cache maintains; Table 4 and the ablation benches
/// read these.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OffloadStats {
    /// Bytes submitted to the store queue (the paper's "offloaded
    /// amount").
    pub offloaded_bytes: u64,
    /// Store jobs submitted.
    pub store_jobs: u64,
    /// Bytes whose re-save was avoided by identity deduplication.
    pub dedup_avoided_bytes: u64,
    /// Saves answered by an existing record (dedup hits).
    pub dedup_hits: u64,
    /// Unpacks served by data forwarding (store still in flight).
    pub forwarded: u64,
    /// Bytes forwarded.
    pub forwarded_bytes: u64,
    /// Queued store jobs cancelled after forwarding.
    pub cancelled_stores: u64,
    /// Bytes of cancelled stores (write traffic avoided).
    pub cancelled_bytes: u64,
    /// Reloads issued as prefetches.
    pub prefetches: u64,
    /// Reloads issued synchronously at unpack (prefetch missed).
    pub sync_loads: u64,
    /// Bytes reloaded from the offload target.
    pub reloaded_bytes: u64,
    /// Tensors kept resident by policy (parameter, small, kept module,
    /// backward-phase save).
    pub kept: u64,
    /// Total simulated seconds the GPU stalled waiting for reloads — the
    /// exposed I/O latency; ≈0 when overlap is perfect (paper Q1).
    pub stall_secs: f64,
    /// Simulated seconds the step stalled at stage exits waiting for
    /// store queues to drain: what backward left of the activation queue
    /// at its exit, plus any state-class store waited for where it was
    /// submitted. 0 when every store hides inside forward + backward.
    pub store_stall_secs: f64,
    /// Stores the offload target failed (recovery then applied per
    /// [`crate::RecoveryPolicy`]).
    pub store_failures: u64,
    /// Extra read attempts made while recovering failed loads.
    pub load_retries: u64,
    /// Bytes re-routed to the fallback target after the primary target
    /// refused them.
    pub fallback_bytes: u64,
    /// Bytes kept in GPU memory because their store failed and recovery
    /// absorbed it.
    pub kept_resident_bytes: u64,
    /// Bytes admitted to a slower tier because a faster placement tier
    /// was full at pack time.
    pub spilled_bytes: u64,
    /// Peak bytes simultaneously staged in the pinned [`BufferArena`]
    /// this step — the pinned host memory the configuration really
    /// needs.
    ///
    /// [`BufferArena`]: ssdtrain_simhw::BufferArena
    pub arena_high_water_bytes: u64,
    /// Slab acquisitions served from the free lists instead of growing
    /// the footprint (cumulative).
    pub arena_slab_reuses: u64,
    /// Coalesced segments sealed and submitted this step (each is one
    /// store job and one device write operation).
    pub coalesce_segments: u64,
    /// Tensor bytes sealed into coalesced segments (counted at the
    /// seal, so later cancellations and recoveries do not subtract).
    pub coalesced_bytes: u64,
    /// Members evicted from an open (unsealed) segment because they
    /// were consumed or released before the segment filled — served
    /// from memory like a forwarding hit.
    pub coalesce_evictions: u64,
    /// Backward prefetch groups issued (the group look-ahead).
    pub prefetch_groups: u64,
    /// Per-tier traffic, front tier first (empty until the cache takes
    /// its first snapshot).
    pub tiers: Lent<TierCounters>,
    /// Per-class traffic split in [`OffloadClass::ALL`] order
    /// (activation, gradient, optimizer_state). Empty in a default
    /// struct; the cache's first snapshot materialises all three.
    pub classes: Lent<ClassCounters>,
}

impl OffloadStats {
    /// The counters for `class`, materialising the full
    /// [`OffloadClass::ALL`]-ordered vector on first touch so the stats
    /// always show all three lanes once any class moves bytes.
    pub(crate) fn class_mut(&mut self, class: OffloadClass) -> &mut ClassCounters {
        let classes = self.classes.to_mut();
        if classes.is_empty() {
            classes.extend(OffloadClass::ALL.iter().map(|c| ClassCounters {
                class: c.label(),
                ..ClassCounters::default()
            }));
        }
        &mut classes[class.index()]
    }

    /// Zeroes every counter for a new step, as a default struct would,
    /// but keeps the lists' buffers: a warm step's first
    /// [`OffloadStats::class_mut`] allocates nothing.
    pub(crate) fn reset(&mut self) {
        self.tiers.clear();
        self.classes.clear();
        *self = OffloadStats {
            tiers: std::mem::take(&mut self.tiers),
            classes: std::mem::take(&mut self.classes),
            ..OffloadStats::default()
        };
    }

    /// The counters for `class`, if any class has moved bytes this step.
    pub fn class(&self, class: OffloadClass) -> Option<&ClassCounters> {
        self.classes.get(class.index())
    }

    /// The byte counters a step's trace accounts for, as
    /// [`explain`](ssdtrain_trace::explain) reads them back (DESIGN §6).
    pub fn step_bytes(&self) -> StepBytes {
        StepBytes {
            offloaded: self.offloaded_bytes,
            reloaded: self.reloaded_bytes,
            cancelled: self.cancelled_bytes,
            fallback: self.fallback_bytes,
            kept_resident: self.kept_resident_bytes,
        }
    }

    /// Whether recovery machinery engaged this step (any failed store,
    /// retried load, fallback write or failure-kept tensor).
    pub fn degraded(&self) -> bool {
        self.store_failures > 0
            || self.load_retries > 0
            || self.fallback_bytes > 0
            || self.kept_resident_bytes > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let s = OffloadStats::default();
        assert_eq!((s.offloaded_bytes, s.reloaded_bytes), (0, 0));
        assert_eq!(s.stall_secs, 0.0);
    }

    #[test]
    fn class_mut_materialises_all_lanes_in_order() {
        let mut s = OffloadStats::default();
        assert!(s.classes.is_empty());
        s.class_mut(OffloadClass::OptimizerState).offloaded_bytes += 64;
        assert_eq!(s.classes.len(), 3);
        assert_eq!(s.classes[0].class, "activation");
        assert_eq!(s.classes[1].class, "gradient");
        assert_eq!(s.classes[2].class, "optimizer_state");
        assert_eq!(
            s.class(OffloadClass::OptimizerState)
                .map(|c| c.offloaded_bytes),
            Some(64)
        );
    }
}
