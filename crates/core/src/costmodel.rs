//! Cost model: the step's critical path, predicted from a profile.
//!
//! [`crate::TensorCache`]'s `pack` decides *whether* a tensor offloads
//! and the [`TierStack`] decides *where*, with a fixed front-first walk.
//! Neither sees time. This module rebuilds the step's critical path from
//! a [`StepProfile`] — forward and backward compute, the reload traffic
//! racing backward, and the store queue that must have drained by
//! backward's exit — for a per-module tier assignment
//! ([`CostModel::front_first_assignment`] is the one the stack produces).
//!
//! Three things consume it. The adaptive planner's bandwidth budget is
//! [`CostModel::effective_write_bps`]: a byte split priced over the
//! tiers it actually lands on — serialised across the shared write
//! bus — instead of a sum of link bandwidths that cannot be used
//! concurrently. `bench_capacity` prices optimizer-state jobs with
//! [`CostModel::state_job_secs`]. And [`CostModel::modeled_step_secs`]
//! is the prediction the benchmark scores against the simulator
//! (`costmodel.pred_err_frac`).
//!
//! Timing semantics mirror the simulator's barriers (see
//! [`crate::TensorCache::stage_scope`]): forward ends when its compute
//! does — its tail stores run on into backward — the backward stage
//! takes `max(compute, reload time)`, and backward's exit waits for the
//! store queue, which cannot begin before the first module's compute
//! finishes (`t0`): `max(fwd + max(bwd, reload), t0 + store drain)`.
//! The queue is priced whole: stores that backward's forwarding cancels
//! in flight are a runtime quantity, so the model is an upper bound on
//! a link too slow to hide the drain and exact where it hides.
// ssdtrain-lint: hot-path

use crate::adaptive::StepProfile;
use crate::io::IoEngine;
use crate::tier::TierStack;

/// One placement tier as the cost model prices it.
#[derive(Debug, Clone, PartialEq)]
pub struct TierCost {
    /// The tier's display name.
    pub name: String,
    /// Effective store bandwidth, bytes/s (link rate capped by the
    /// shared write bus).
    pub write_bps: f64,
    /// Load bandwidth, bytes/s (reads are independent per link).
    pub read_bps: f64,
    /// Admission capacity, `None` when unbounded.
    pub capacity_bytes: Option<u64>,
}

/// The modeled step-time calculator over a stack's placement tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    tiers: Vec<TierCost>,
    bus_write_bps: f64,
    /// Fixed per-store-job submission cost, seconds (mirrors
    /// [`IoEngine::store_job_overhead_secs`]).
    store_job_overhead_secs: f64,
    /// Coalescer segment size the drain is priced under (0 = one job
    /// per tier, the pre-coalescer lower bound).
    segment_bytes: u64,
}

impl CostModel {
    /// Builds the model from the engine's link pricing and the stack's
    /// placement tiers (demotion-only tiers are a recovery path and are
    /// not priced).
    pub fn from_parts(io: &IoEngine, tiers: &TierStack) -> CostModel {
        let bus = io.bus_write_bps();
        let tiers = tiers
            .placement_tiers()
            .into_iter()
            .map(|s| TierCost {
                write_bps: io.write_bps_of(s.link).min(bus),
                read_bps: io.read_bps_of(s.link),
                name: s.name,
                capacity_bytes: s.capacity_bytes,
            })
            .collect();
        CostModel {
            tiers,
            bus_write_bps: bus,
            store_job_overhead_secs: io.store_job_overhead_secs(),
            segment_bytes: 0,
        }
    }

    /// Prices the store drain as if the coalescer sealed segments of
    /// `bytes` (0 restores one-job-per-tier pricing). The cache passes
    /// its configured `coalesce_segment_bytes` here so the model sees
    /// the same job counts the simulator will charge overhead for.
    pub fn with_segment_bytes(mut self, bytes: u64) -> CostModel {
        self.segment_bytes = bytes;
        self
    }

    /// Store jobs needed to move `bytes` to one tier under the priced
    /// segment size. With coalescing off the model prices the lower
    /// bound of one job per non-empty tier — the per-tensor job count is
    /// a runtime quantity only the simulator sees.
    pub fn jobs_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else if self.segment_bytes > 0 {
            bytes.div_ceil(self.segment_bytes)
        } else {
            1
        }
    }

    /// The tiers the model prices, front first.
    pub fn tiers(&self) -> &[TierCost] {
        &self.tiers
    }

    /// Seconds until the last store drains, given `bytes_per_tier`
    /// (indexed like [`CostModel::tiers`]; missing entries are zero).
    /// Every job serialises on the shared bus, so the drain is the sum
    /// of per-tier transfer times. Each tier also pays [`CostModel::jobs_for`] × the engine's per-job submission
    /// overhead, which is what makes coalesced segments strictly cheaper
    /// to drain than per-tensor jobs once the overhead is non-zero.
    pub fn store_drain_secs(&self, bytes_per_tier: &[u64]) -> f64 {
        let per_tier = self.tiers.iter().enumerate().map(|(i, t)| {
            let bytes = bytes_per_tier.get(i).copied().unwrap_or(0);
            bytes as f64 / t.write_bps + self.jobs_for(bytes) as f64 * self.store_job_overhead_secs
        });
        per_tier.sum()
    }

    /// Seconds until every reload finishes — reads are full duplex and
    /// independent per link, so the slowest tier bounds the time.
    pub fn load_secs(&self, bytes_per_tier: &[u64]) -> f64 {
        self.tiers
            .iter()
            .enumerate()
            .map(|(i, t)| bytes_per_tier.get(i).copied().unwrap_or(0) as f64 / t.read_bps)
            .fold(0.0, f64::max)
    }

    /// The effective aggregate store bandwidth of a byte split: total
    /// bytes over their drain time. This is the adaptive planner's
    /// budget — never more than the shared bus delivers, so strictly
    /// less than the sum of link bandwidths.
    pub fn effective_write_bps(&self, bytes_per_tier: &[u64]) -> f64 {
        let total: u64 = bytes_per_tier.iter().sum();
        let drain = self.store_drain_secs(bytes_per_tier);
        if total == 0 || drain <= 0.0 {
            self.aggregate_write_bps()
        } else {
            total as f64 / drain
        }
    }

    /// Price of one optimizer-stage state job on `tier`: load the
    /// stage's optimizer state and gradients back from the tier, then
    /// store the refreshed state. Reads are full duplex; the store-back
    /// rides the bus-capped write path. The overlap engine
    /// uses this to decide how much of each stage's update the next
    /// step's forward can hide (GreedySnake's schedule), on the same
    /// model the adaptive budget prices stores with.
    pub fn state_job_secs(&self, tier_idx: usize, load_bytes: u64, store_bytes: u64) -> f64 {
        let Some(t) = self.tiers.get(tier_idx) else {
            return 0.0;
        };
        load_bytes as f64 / t.read_bps.max(f64::MIN_POSITIVE)
            + store_bytes as f64 / t.write_bps.max(f64::MIN_POSITIVE)
    }

    /// Upper bound on deliverable store bandwidth: the link sum, capped
    /// by the shared bus.
    fn aggregate_write_bps(&self) -> f64 {
        let sum: f64 = self.tiers.iter().map(|t| t.write_bps).sum();
        self.bus_write_bps.min(sum.max(f64::MIN_POSITIVE))
    }

    /// The byte split of the static front-first placement (each module
    /// lands on the first tier with capacity headroom — what
    /// [`TierStack::reserve`] does).
    pub fn front_first_assignment(&self, profile: &StepProfile) -> Vec<Option<usize>> {
        let mut used = vec![0u64; self.tiers.len()];
        profile
            .modules
            .iter()
            .map(|m| {
                for (i, t) in self.tiers.iter().enumerate() {
                    let fits = t
                        .capacity_bytes
                        .map(|c| used[i].saturating_add(m.offload_bytes) <= c)
                        .unwrap_or(true);
                    if fits {
                        used[i] += m.offload_bytes;
                        return Some(i);
                    }
                }
                None
            })
            .collect()
    }

    /// Sums each tier's bytes under `assignment` (entries are
    /// indices into [`CostModel::tiers`]; `None` keeps the module
    /// resident).
    pub fn split_for(&self, profile: &StepProfile, assignment: &[Option<usize>]) -> Vec<u64> {
        let mut split = vec![0u64; self.tiers.len()];
        for (m, a) in profile.modules.iter().zip(assignment) {
            if let Some(i) = *a {
                if i < split.len() {
                    split[i] += m.offload_bytes;
                }
            }
        }
        split
    }

    /// The modeled step time of `assignment`: forward compute plus the
    /// backward stage `max(compute, reload time)`, or the store queue's
    /// drain `t0 + store drain` when that ends later — the drain hides
    /// in forward *and* backward and is waited for only at backward's
    /// exit. `t0` is the first module's forward time (no store can be
    /// submitted before it) and backward compute is `bwd_fwd_ratio ×`
    /// forward.
    pub fn modeled_step_secs(
        &self,
        profile: &StepProfile,
        assignment: &[Option<usize>],
        bwd_fwd_ratio: f64,
    ) -> f64 {
        let split = self.split_for(profile, assignment);
        let fwd = profile
            .fwd_total_secs
            .max(profile.modules.iter().map(|m| m.fwd_secs).sum::<f64>());
        let t0 = profile.modules.first().map(|m| m.fwd_secs).unwrap_or(0.0);
        let bwd_stage = (bwd_fwd_ratio * fwd).max(self.load_secs(&split));
        (fwd + bwd_stage).max(t0 + self.store_drain_secs(&split))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::ModuleProfile;
    use crate::io::TierLink;
    use crate::target::CpuTarget;
    use crate::tier::Tier;
    use ssdtrain_simhw::SimClock;
    use std::sync::Arc;

    fn two_tier_model(front_cap: u64) -> CostModel {
        let links = vec![
            TierLink::new("dram", 2e9, 2e9),
            TierLink::new("ssd", 1e9, 1e9),
        ];
        let io = IoEngine::tiered_with_bus(SimClock::new(), links, 2e9);
        let stack = TierStack::new(vec![
            Tier::new("dram", Arc::new(CpuTarget::new(1 << 40)), 0).with_capacity(front_cap),
            Tier::new("ssd", Arc::new(CpuTarget::new(1 << 40)), 1),
        ]);
        CostModel::from_parts(&io, &stack)
    }

    fn profile(mods: &[(&str, u64, f64)]) -> StepProfile {
        StepProfile {
            modules: mods
                .iter()
                .map(|(p, b, t)| ModuleProfile {
                    path: (*p).into(),
                    offload_bytes: *b,
                    fwd_secs: *t,
                    store_secs: 0.0,
                    load_secs: 0.0,
                })
                .collect(),
            fwd_total_secs: mods.iter().map(|m| m.2).sum(),
            fwd_io_bytes: mods.iter().map(|m| m.1).sum(),
            fwd_io_secs: 0.0,
        }
    }

    #[test]
    fn bus_serialises_the_modeled_drain() {
        let m = two_tier_model(u64::MAX);
        let split = [2_000_000_000, 1_000_000_000];
        // 1 s + 1 s serialised, not max(1, 1) as on independent links.
        assert_eq!(m.store_drain_secs(&split), 2.0);
        assert_eq!(m.effective_write_bps(&split), 1.5e9);
    }

    #[test]
    fn effective_bandwidth_never_exceeds_the_bus() {
        let m = two_tier_model(u64::MAX);
        assert_eq!(m.aggregate_write_bps(), 2e9);
        assert!(m.effective_write_bps(&[1 << 30, 1 << 30]) <= 2e9);
    }

    #[test]
    fn job_overhead_prices_segment_counts() {
        let io = IoEngine::new(SimClock::new(), 1e9, 1e9);
        io.set_store_job_overhead(0.01);
        let stack = TierStack::single(Arc::new(CpuTarget::new(1 << 40)));
        let m = CostModel::from_parts(&io, &stack);
        let bytes = [1_000_000_000u64];
        // One job per tier without a segment size: 1 s transfer + 10 ms.
        assert!((m.store_drain_secs(&bytes) - 1.01).abs() < 1e-12);
        // Priced at 256 MB segments: ceil(1e9 / 256e6) = 4 jobs.
        let seg = m.clone().with_segment_bytes(256_000_000);
        assert_eq!(seg.jobs_for(bytes[0]), 4);
        assert!((seg.store_drain_secs(&bytes) - 1.04).abs() < 1e-12);
        assert_eq!(seg.jobs_for(0), 0, "empty tiers pay no overhead");
    }

    #[test]
    fn zero_overhead_keeps_legacy_drain_times() {
        let m = two_tier_model(u64::MAX);
        let seg = m.clone().with_segment_bytes(1 << 20);
        let split = [2_000_000_000, 1_000_000_000];
        assert_eq!(m.store_drain_secs(&split), seg.store_drain_secs(&split));
    }

    #[test]
    fn modeled_step_never_beats_pure_compute() {
        let m = two_tier_model(u64::MAX);
        let p = profile(&[("l0", 1 << 30, 0.5), ("l1", 1 << 30, 0.5)]);
        let assign = m.front_first_assignment(&p);
        let step = m.modeled_step_secs(&p, &assign, 2.0);
        assert!(step >= 3.0 - 1e-12, "fwd 1 s + bwd 2 s bounds the step");
    }
}
