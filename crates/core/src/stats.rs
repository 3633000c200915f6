//! Offloading statistics collected per training step.

use crate::placement::OffloadClass;
use crate::tier::TierCounters;
use serde::{Deserialize, Serialize};
use ssdtrain_trace::MetricsRegistry;

/// Per-[`OffloadClass`] traffic split: how much of the step's offload
/// I/O was activations vs gradients vs optimizer state. Every byte in
/// [`OffloadStats::offloaded_bytes`] / `reloaded_bytes` is attributed to
/// exactly one class (the conservation invariant the proptest suite
/// pins).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClassCounters {
    /// The class label ([`OffloadClass::label`]).
    pub class: String,
    /// Bytes submitted to store queues for this class (net of
    /// cancellations, like the global counter).
    pub offloaded_bytes: u64,
    /// Bytes reloaded from the tiers for this class.
    pub reloaded_bytes: u64,
    /// Store jobs submitted for this class.
    pub stores: u64,
    /// Load jobs issued for this class.
    pub loads: u64,
}

/// Counters the tensor cache maintains; Table 4 and the ablation benches
/// read these.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
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
    #[serde(default)]
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
    /// Bytes kept resident because every placement tier was full (the
    /// [`crate::TierStack`] refused admission).
    pub placement_kept_bytes: u64,
    /// Payload bytes staged through the pinned [`BufferArena`] this
    /// step (slab acquisitions).
    ///
    /// [`BufferArena`]: ssdtrain_simhw::BufferArena
    #[serde(default)]
    pub arena_acquired_bytes: u64,
    /// Payload bytes returned to the arena this step. The arena's
    /// conservation invariant is `acquired == released + in_use` over
    /// its own cumulative counters; per step the gap is bytes still
    /// staged across the step boundary.
    #[serde(default)]
    pub arena_released_bytes: u64,
    /// Peak bytes simultaneously staged in the arena this step — the
    /// pinned host memory the configuration really needs.
    #[serde(default)]
    pub arena_high_water_bytes: u64,
    /// Total pinned footprint of the arena (sum of all slab size
    /// classes ever created; grows only when reuse misses).
    #[serde(default)]
    pub arena_footprint_bytes: u64,
    /// Slab acquisitions served from the free lists instead of growing
    /// the footprint (cumulative).
    #[serde(default)]
    pub arena_slab_reuses: u64,
    /// Coalesced segments sealed and submitted this step (each is one
    /// store job and one device write operation).
    #[serde(default)]
    pub coalesce_segments: u64,
    /// Tensor bytes sealed into coalesced segments (counted at the
    /// seal, so later cancellations and recoveries do not subtract).
    #[serde(default)]
    pub coalesced_bytes: u64,
    /// Members evicted from an open (unsealed) segment because they
    /// were consumed or released before the segment filled — served
    /// from memory like a forwarding hit.
    #[serde(default)]
    pub coalesce_evictions: u64,
    /// Backward prefetch groups issued (the group look-ahead).
    #[serde(default)]
    pub prefetch_groups: u64,
    /// Bytes covered by issued prefetch groups.
    #[serde(default)]
    pub prefetch_group_bytes: u64,
    /// Per-tier traffic, front tier first (empty until the cache takes
    /// its first snapshot).
    pub tiers: Vec<TierCounters>,
    /// Per-class traffic split in [`OffloadClass::ALL`] order
    /// (activation, gradient, optimizer_state). Empty in a default
    /// struct; [`OffloadStats::class_mut`] materialises all three.
    #[serde(default)]
    pub classes: Vec<ClassCounters>,
}

impl OffloadStats {
    /// The counters for `class`, materialising the full
    /// [`OffloadClass::ALL`]-ordered vector on first touch so exported
    /// stats always show all three lanes once any class moves bytes.
    pub fn class_mut(&mut self, class: OffloadClass) -> &mut ClassCounters {
        if self.classes.is_empty() {
            self.classes = OffloadClass::ALL
                .iter()
                .map(|c| ClassCounters {
                    class: c.label().to_owned(),
                    ..ClassCounters::default()
                })
                .collect();
        }
        &mut self.classes[class.index()]
    }

    /// The counters for `class`, if any class has moved bytes this step.
    pub fn class(&self, class: OffloadClass) -> Option<&ClassCounters> {
        self.classes.get(class.index())
    }
    /// Sum of write and read traffic to the offload target.
    pub fn io_bytes(&self) -> u64 {
        self.offloaded_bytes + self.reloaded_bytes
    }

    /// Whether recovery machinery engaged this step (any failed store,
    /// retried load, fallback write or failure-kept tensor).
    pub fn degraded(&self) -> bool {
        self.store_failures > 0
            || self.load_retries > 0
            || self.fallback_bytes > 0
            || self.kept_resident_bytes > 0
    }

    /// Accumulates every counter into `registry` under the `offload.`
    /// namespace (stall time as a per-step histogram observation). This
    /// is how the ad-hoc stats struct is subsumed by the unified
    /// [`MetricsRegistry`] surface: call once per completed step.
    pub fn export_to(&self, registry: &MetricsRegistry) {
        // Exhaustive on purpose (no `..`): a counter added to any of the
        // three structs does not compile until it is exported here.
        let OffloadStats {
            offloaded_bytes,
            store_jobs,
            dedup_avoided_bytes,
            dedup_hits,
            forwarded,
            forwarded_bytes,
            cancelled_stores,
            cancelled_bytes,
            prefetches,
            sync_loads,
            reloaded_bytes,
            kept,
            stall_secs,
            store_stall_secs,
            store_failures,
            load_retries,
            fallback_bytes,
            kept_resident_bytes,
            spilled_bytes,
            placement_kept_bytes,
            arena_acquired_bytes,
            arena_released_bytes,
            arena_high_water_bytes,
            arena_footprint_bytes,
            arena_slab_reuses,
            coalesce_segments,
            coalesced_bytes,
            coalesce_evictions,
            prefetch_groups,
            prefetch_group_bytes,
            tiers,
            classes,
        } = self;
        let counters = [
            ("offload.offloaded_bytes", offloaded_bytes),
            ("offload.store_jobs", store_jobs),
            ("offload.dedup_avoided_bytes", dedup_avoided_bytes),
            ("offload.dedup_hits", dedup_hits),
            ("offload.forwarded", forwarded),
            ("offload.forwarded_bytes", forwarded_bytes),
            ("offload.cancelled_stores", cancelled_stores),
            ("offload.cancelled_bytes", cancelled_bytes),
            ("offload.prefetches", prefetches),
            ("offload.sync_loads", sync_loads),
            ("offload.reloaded_bytes", reloaded_bytes),
            ("offload.kept", kept),
            ("offload.store_failures", store_failures),
            ("offload.load_retries", load_retries),
            ("offload.fallback_bytes", fallback_bytes),
            ("offload.kept_resident_bytes", kept_resident_bytes),
            ("offload.spilled_bytes", spilled_bytes),
            ("offload.placement_kept_bytes", placement_kept_bytes),
            ("offload.arena_acquired_bytes", arena_acquired_bytes),
            ("offload.arena_released_bytes", arena_released_bytes),
            ("offload.arena_high_water_bytes", arena_high_water_bytes),
            ("offload.arena_footprint_bytes", arena_footprint_bytes),
            ("offload.arena_slab_reuses", arena_slab_reuses),
            ("offload.coalesce_segments", coalesce_segments),
            ("offload.coalesced_bytes", coalesced_bytes),
            ("offload.coalesce_evictions", coalesce_evictions),
            ("offload.prefetch_groups", prefetch_groups),
            ("offload.prefetch_group_bytes", prefetch_group_bytes),
        ];
        for (name, value) in counters {
            registry.inc_counter(name, *value);
        }
        for (idx, tier) in tiers.iter().enumerate() {
            let TierCounters {
                name,
                bytes_written,
                bytes_read,
                stores,
                loads,
                spilled_in_bytes,
                demoted_in_bytes,
                stall_secs,
                write_busy_secs,
                read_busy_secs,
            } = tier;
            let prefix = format!("offload.tier{idx}.{name}");
            registry.inc_counter(&format!("{prefix}.bytes_written"), *bytes_written);
            registry.inc_counter(&format!("{prefix}.bytes_read"), *bytes_read);
            registry.inc_counter(&format!("{prefix}.stores"), *stores);
            registry.inc_counter(&format!("{prefix}.loads"), *loads);
            registry.inc_counter(&format!("{prefix}.spilled_in_bytes"), *spilled_in_bytes);
            registry.inc_counter(&format!("{prefix}.demoted_in_bytes"), *demoted_in_bytes);
            registry.observe(&format!("{prefix}.stall_secs"), *stall_secs);
            registry.observe(&format!("{prefix}.write_busy_secs"), *write_busy_secs);
            registry.observe(&format!("{prefix}.read_busy_secs"), *read_busy_secs);
        }
        for c in classes.iter() {
            let ClassCounters {
                class,
                offloaded_bytes,
                reloaded_bytes,
                stores,
                loads,
            } = c;
            let prefix = format!("offload.class.{class}");
            registry.inc_counter(&format!("{prefix}.offloaded_bytes"), *offloaded_bytes);
            registry.inc_counter(&format!("{prefix}.reloaded_bytes"), *reloaded_bytes);
            registry.inc_counter(&format!("{prefix}.stores"), *stores);
            registry.inc_counter(&format!("{prefix}.loads"), *loads);
        }
        registry.observe("offload.stall_secs", *stall_secs);
        registry.observe("offload.store_stall_secs", *store_stall_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_bytes_sums_directions() {
        let s = OffloadStats {
            offloaded_bytes: 10,
            reloaded_bytes: 5,
            ..OffloadStats::default()
        };
        assert_eq!(s.io_bytes(), 15);
    }

    #[test]
    fn default_is_all_zero() {
        let s = OffloadStats::default();
        assert_eq!(s.io_bytes(), 0);
        assert_eq!(s.stall_secs, 0.0);
    }

    #[test]
    fn export_accumulates_across_steps() {
        let registry = MetricsRegistry::new();
        let s = OffloadStats {
            offloaded_bytes: 100,
            store_jobs: 2,
            stall_secs: 0.25,
            ..OffloadStats::default()
        };
        s.export_to(&registry);
        s.export_to(&registry);
        assert_eq!(registry.counter("offload.offloaded_bytes"), 200);
        assert_eq!(registry.counter("offload.store_jobs"), 4);
        let stall = registry.histogram("offload.stall_secs").unwrap();
        assert_eq!(stall.count, 2);
        assert_eq!(stall.sum, 0.5);
    }

    #[test]
    fn export_includes_per_tier_counters() {
        let registry = MetricsRegistry::new();
        let s = OffloadStats {
            spilled_bytes: 3,
            tiers: vec![
                TierCounters {
                    name: "dram".to_owned(),
                    bytes_written: 7,
                    ..TierCounters::default()
                },
                TierCounters {
                    name: "ssd".to_owned(),
                    spilled_in_bytes: 3,
                    ..TierCounters::default()
                },
            ],
            ..OffloadStats::default()
        };
        s.export_to(&registry);
        assert_eq!(registry.counter("offload.spilled_bytes"), 3);
        assert_eq!(registry.counter("offload.tier0.dram.bytes_written"), 7);
        assert_eq!(registry.counter("offload.tier1.ssd.spilled_in_bytes"), 3);
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

    #[test]
    fn export_includes_per_class_counters() {
        let registry = MetricsRegistry::new();
        let mut s = OffloadStats::default();
        {
            let g = s.class_mut(OffloadClass::Gradient);
            g.offloaded_bytes = 40;
            g.stores = 2;
        }
        {
            let o = s.class_mut(OffloadClass::OptimizerState);
            o.reloaded_bytes = 16;
            o.loads = 1;
        }
        s.export_to(&registry);
        assert_eq!(
            registry.counter("offload.class.gradient.offloaded_bytes"),
            40
        );
        assert_eq!(registry.counter("offload.class.gradient.stores"), 2);
        assert_eq!(
            registry.counter("offload.class.optimizer_state.reloaded_bytes"),
            16
        );
        assert_eq!(registry.counter("offload.class.optimizer_state.loads"), 1);
        assert_eq!(
            registry.counter("offload.class.activation.offloaded_bytes"),
            0
        );
    }
}
