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
//! Two things consume it. `bench_capacity` prices optimizer-state jobs
//! with [`CostModel::state_job_secs`], and [`CostModel::modeled_step_secs`]
//! is the prediction the benchmark scores against the simulator
//! (`costmodel.pred_err_frac`). The adaptive planner reads none of it:
//! it budgets on the write rate its profiling step measured.
//! Stores serialise across the shared write bus — the drain is a sum of
//! per-tier times, not a max over links that cannot be used
//! concurrently — and reloads serialise the same way on the read bus.
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

use crate::adaptive::StepProfile;
use crate::io::IoEngine;
use crate::tier::TierStack;

/// One placement tier as the cost model prices it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TierCost {
    /// Effective store bandwidth, bytes/s (link rate capped by the
    /// shared write bus).
    pub(crate) write_bps: f64,
    /// Effective load bandwidth, bytes/s (link rate capped by the
    /// shared read bus).
    pub(crate) read_bps: f64,
    /// Admission capacity, `None` when unbounded.
    pub(crate) capacity_bytes: Option<u64>,
}

/// The modeled step-time calculator over a stack's placement tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    tiers: Vec<TierCost>,
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
    pub(crate) fn from_parts(io: &IoEngine, tiers: &TierStack) -> CostModel {
        let bus = io.bus_write_bps();
        let tiers = tiers
            .placement_tiers()
            .into_iter()
            .map(|s| TierCost {
                write_bps: io.write_bps_of(s.link).min(bus),
                read_bps: io.read_bps_of(s.link).min(io.bus_read_bps()),
                capacity_bytes: s.capacity_bytes,
            })
            .collect();
        CostModel {
            tiers,
            store_job_overhead_secs: io.store_job_overhead_secs(),
            segment_bytes: 0,
        }
    }

    /// Prices the store drain as if the coalescer sealed segments of
    /// `bytes` (0 restores one-job-per-tier pricing). The cache passes
    /// its configured `coalesce_segment_bytes` here so the model sees
    /// the same job counts the simulator will charge overhead for.
    pub(crate) fn with_segment_bytes(mut self, bytes: u64) -> CostModel {
        self.segment_bytes = bytes;
        self
    }

    /// Store jobs needed to move `bytes` to one tier under the priced
    /// segment size. With coalescing off the model prices the lower
    /// bound of one job per non-empty tier — the per-tensor job count is
    /// a runtime quantity only the simulator sees.
    pub(crate) fn jobs_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else if self.segment_bytes > 0 {
            bytes.div_ceil(self.segment_bytes)
        } else {
            1
        }
    }

    /// Seconds until the last store drains, given `bytes_per_tier`
    /// (indexed like the stack's placement tiers,
    /// [`TierStack::placement_tiers`]; missing entries are zero).
    /// Every job serialises on the shared bus, so the drain is the sum
    /// of per-tier transfer times. Each tier also pays [`CostModel::jobs_for`] × the engine's per-job submission
    /// overhead, which is what makes coalesced segments strictly cheaper
    /// to drain than per-tensor jobs once the overhead is non-zero.
    pub(crate) fn store_drain_secs(&self, bytes_per_tier: &[u64]) -> f64 {
        let per_tier = self.tiers.iter().enumerate().map(|(i, t)| {
            let bytes = bytes_per_tier.get(i).copied().unwrap_or(0);
            bytes as f64 / t.write_bps + self.jobs_for(bytes) as f64 * self.store_job_overhead_secs
        });
        per_tier.sum()
    }

    /// Seconds until every reload finishes. Reads are full duplex with
    /// the stores but share one read bus, so — like the drain — the time
    /// is the sum of per-tier transfer times.
    pub(crate) fn load_secs(&self, bytes_per_tier: &[u64]) -> f64 {
        self.tiers
            .iter()
            .enumerate()
            .map(|(i, t)| bytes_per_tier.get(i).copied().unwrap_or(0) as f64 / t.read_bps)
            .sum()
    }

    /// Price of one optimizer-stage state job on `tier`: load the
    /// stage's optimizer state and gradients back from the tier, then
    /// store the refreshed state, each direction at its bus-capped rate
    /// (the two are full duplex, but both are summed: the update needs
    /// its state before it can write it back).
    pub fn state_job_secs(&self, tier_idx: usize, load_bytes: u64, store_bytes: u64) -> f64 {
        let Some(t) = self.tiers.get(tier_idx) else {
            return 0.0;
        };
        load_bytes as f64 / t.read_bps.max(f64::MIN_POSITIVE)
            + store_bytes as f64 / t.write_bps.max(f64::MIN_POSITIVE)
    }

    /// The byte split of the static front-first placement (each module
    /// lands on the first tier with capacity headroom — what the cache's
    /// tier admission does).
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
    /// indices into the stack's placement tiers; `None` keeps the module
    /// resident).
    pub(crate) fn split_for(
        &self,
        profile: &StepProfile,
        assignment: &[Option<usize>],
    ) -> Vec<u64> {
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
    use proptest::prelude::*;
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
        // Reloads cross the read bus the same way.
        assert_eq!(m.load_secs(&split), 2.0);
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

    /// A two-tier cost model over a fresh engine with the same link
    /// pricing, so modeled times can be replayed against the simulator
    /// directly.
    fn cost_fixture(write_bps: [f64; 2], read_bps: [f64; 2], bus: f64) -> (CostModel, IoEngine) {
        let links = || {
            vec![
                TierLink::new("dram", write_bps[0], read_bps[0]),
                TierLink::new("ssd", write_bps[1], read_bps[1]),
            ]
        };
        let engine = |clock| IoEngine::tiered_with_bus(clock, links(), bus);
        let stack = TierStack::new(vec![
            Tier::new("dram", Arc::new(CpuTarget::new(1 << 40)), 0),
            Tier::new("ssd", Arc::new(CpuTarget::new(1 << 40)), 1),
        ]);
        (
            CostModel::from_parts(&engine(SimClock::new()), &stack),
            engine(SimClock::new()),
        )
    }

    fn varied_profile(mods: &[(u64, f64)]) -> StepProfile {
        StepProfile {
            modules: mods
                .iter()
                .enumerate()
                .map(|(i, (bytes, secs))| ModuleProfile {
                    path: format!("m{i}"),
                    offload_bytes: *bytes,
                    fwd_secs: *secs,
                    store_secs: 0.0,
                    load_secs: 0.0,
                })
                .collect(),
            fwd_total_secs: mods.iter().map(|m| m.1).sum(),
            fwd_io_bytes: mods.iter().map(|m| m.0).sum(),
            fwd_io_secs: 0.0,
        }
    }

    proptest! {
        // Each case replays the modeled byte split through a real engine,
        // so keep the sweep moderate.
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn modeled_step_time_matches_a_direct_simulation(
            mods in prop::collection::vec(
                ((1u64..2_000_000_000, 0.001f64..0.3), 0usize..3),
                1..12,
            ),
            write_bps in (1e8f64..1e10, 1e8f64..1e10).prop_map(|(a, b)| [a, b]),
            read_bps in (1e8f64..1e10, 1e8f64..1e10).prop_map(|(a, b)| [a, b]),
            bus in 1e8f64..1e10,
            ratio in 0.5f64..4.0,
        ) {
            // `2` keeps the module resident, everything else picks a link.
            let assignment: Vec<Option<usize>> =
                mods.iter().map(|(_, l)| (*l < 2).then_some(*l)).collect();
            let profile = varied_profile(&mods.iter().map(|(m, _)| *m).collect::<Vec<_>>());
            let (model, io) = cost_fixture(write_bps, read_bps, bus);

            // Replay the stores through the engine: the modeled drain
            // must be the simulator's drain, job for job.
            for (m, a) in profile.modules.iter().zip(&assignment) {
                if let Some(link) = *a {
                    io.submit_store_to(link, m.offload_bytes);
                }
            }
            let sim_drain = (0..io.link_count())
                .map(|l| io.writes_drain_at_on(l).as_secs())
                .fold(0.0f64, f64::max);
            let split = model.split_for(&profile, &assignment);
            let modeled_drain = model.store_drain_secs(&split);
            prop_assert!(
                (modeled_drain - sim_drain).abs() <= sim_drain.max(1e-9) * 1e-6,
                "drain: modeled {modeled_drain} vs simulated {sim_drain}"
            );

            // Reads serialise on the one read bus, each at its link's
            // rate capped by the bus; replay those too.
            let mut sim_load = 0.0f64;
            for (m, a) in profile.modules.iter().zip(&assignment) {
                if let Some(link) = *a {
                    let read = io.submit_load_from(link, m.offload_bytes);
                    sim_load = sim_load.max(io.read_end(read).as_secs());
                }
            }
            let modeled_load = model.load_secs(&split);
            prop_assert!(
                (modeled_load - sim_load).abs() <= sim_load.max(1e-9) * 1e-6,
                "load: modeled {modeled_load} vs simulated {sim_load}"
            );

            // The full step composes them exactly as the cache's barriers
            // do: reloads race backward compute, and the store queue —
            // which cannot start before the first module computes — is
            // waited for only at backward's exit.
            let fwd = profile.fwd_total_secs;
            let t0 = profile.modules.first().map(|m| m.fwd_secs).unwrap_or(0.0);
            let expect = (fwd + (ratio * fwd).max(sim_load)).max(t0 + sim_drain);
            let modeled = model.modeled_step_secs(&profile, &assignment, ratio);
            prop_assert!(
                (modeled - expect).abs() <= expect * 1e-6,
                "step: modeled {modeled} vs composed {expect}"
            );
        }
    }
}
