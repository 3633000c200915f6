//! Tiered offload backends: an ordered stack of capacity-bounded tiers.
//!
//! The paper's Figure 5 keeps a host-DRAM offloader alongside the SSD
//! path; follow-up systems (10Cache, MemAscend) show the interesting
//! regime is *tiered* — a fast DRAM front tier of bounded capacity
//! spilling into a high-endurance SSD array. [`TierStack`] expresses
//! that as an ordered list of [`Tier`]s, each owning a device
//! ([`OffloadTarget`]), an optional byte capacity and the index of the
//! simulated link its transfers are priced on.
//!
//! Semantics:
//!
//! * **Placement / spill** — [`TierStack::reserve`] admits a tensor into
//!   the first placement-eligible tier with capacity headroom; a tensor
//!   that does not fit the front tier *spills* to the next one. When no
//!   tier has room, `reserve` returns `None` and the cache keeps the
//!   tensor resident (graceful refusal, never an error).
//! * **Demotion** — a tier whose device refuses a write at commit time
//!   demotes the bytes to the next tier down via [`TierStack::demote`];
//!   this is how [`crate::RecoveryPolicy::FallbackTarget`] is expressed
//!   (the fallback target is simply an appended demotion-only tier).
//! * **Accounting** — every tier keeps its own [`TierCounters`]
//!   (device-write / read-back / spill-in / demotion-in traffic), so the
//!   aggregate counters in [`crate::OffloadStats`] split per tier.
//!
//! A single-tier stack ([`TierStack::single`]) reproduces the flat
//! `OffloadTarget` behavior exactly: unbounded admission, every failure
//! surfacing at device-write time.
// ssdtrain-lint: hot-path

use crate::id::TensorKey;
use crate::target::{BatchItem, OffloadTarget};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::sync::Arc;

/// Index of a tier inside a [`TierStack`] (0 = fastest / frontmost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TierId(usize);

impl TierId {
    /// Position of the tier in the stack (0 = front).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

/// Whether new tensors may be *placed* on a tier, or whether it only
/// absorbs demotions from the tiers above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierRole {
    /// Eligible for pack-time placement (and demotions).
    #[default]
    Placement,
    /// Only reachable by demotion — the spill-of-last-resort role the
    /// flat design called the "fallback target".
    DemotionOnly,
}

/// One storage level of a [`TierStack`]: a device plus its admission
/// capacity and the simulated link its transfers are priced on.
pub struct Tier {
    name: String,
    device: Arc<dyn OffloadTarget>,
    capacity_bytes: Option<u64>,
    link: usize,
    role: TierRole,
}

impl Tier {
    /// A placement tier over `device`, unbounded, priced on `link`
    /// (an index into the [`crate::IoEngine`]'s tier links).
    pub fn new(name: impl Into<String>, device: Arc<dyn OffloadTarget>, link: usize) -> Tier {
        Tier {
            name: name.into(),
            device,
            capacity_bytes: None,
            link,
            role: TierRole::Placement,
        }
    }

    /// Bounds pack-time admission to `bytes` of live reservations.
    pub fn with_capacity(mut self, bytes: u64) -> Tier {
        self.capacity_bytes = Some(bytes);
        self
    }

    /// Marks the tier demotion-only (skipped by placement).
    pub fn demotion_only(mut self) -> Tier {
        self.role = TierRole::DemotionOnly;
        self
    }

    /// The tier's display name (defaults sensibly to the device name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The admission capacity, `None` when unbounded.
    pub fn capacity_bytes(&self) -> Option<u64> {
        self.capacity_bytes
    }

    /// Index of the simulated link transfers to this tier are priced on.
    pub fn link(&self) -> usize {
        self.link
    }

    /// Placement eligibility.
    pub fn role(&self) -> TierRole {
        self.role
    }
}

impl fmt::Debug for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tier")
            .field("name", &self.name)
            .field("capacity_bytes", &self.capacity_bytes)
            .field("link", &self.link)
            .field("role", &self.role)
            .finish()
    }
}

/// Per-tier traffic counters for one training step (reset by
/// [`TierStack::reset_counters`]; surfaced as
/// [`crate::OffloadStats::tiers`]).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TierCounters {
    /// The tier's name (stable across steps).
    pub name: String,
    /// Bytes the tier's device accepted (successful writes, including
    /// demotions landing here).
    pub bytes_written: u64,
    /// Bytes read back from the tier's device.
    pub bytes_read: u64,
    /// Successful device writes.
    pub stores: u64,
    /// Successful device reads.
    pub loads: u64,
    /// Bytes placed here because a faster tier was full at pack time.
    pub spilled_in_bytes: u64,
    /// Bytes demoted here after a faster tier's device refused them.
    pub demoted_in_bytes: u64,
    /// Seconds the step stalled waiting for this tier's store queue to
    /// drain at a stage exit (filled from the I/O engine when the
    /// stats snapshot is taken).
    #[serde(default)]
    pub stall_secs: f64,
    /// Seconds this tier's link spent transferring stores this step.
    #[serde(default)]
    pub write_busy_secs: f64,
    /// Seconds this tier's link spent transferring loads this step.
    #[serde(default)]
    pub read_busy_secs: f64,
}

/// Static description of one placement-eligible tier — the shape the
/// cost model ([`crate::CostModel`]) consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// The tier's display name.
    pub name: String,
    /// Index of the simulated link its transfers are priced on.
    pub link: usize,
    /// Admission capacity, `None` when unbounded.
    pub capacity_bytes: Option<u64>,
}

/// Where [`TierStack::reserve`] admitted a tensor. The placement *is*
/// the reservation: whoever receives it owes the tier one
/// [`TierStack::remove`] of the same bytes.
#[must_use = "a dropped placement leaks its tier reservation"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierPlacement {
    /// The tier holding the reservation.
    pub tier: TierId,
    /// Whether a fuller, faster tier was skipped (a spill).
    pub spilled: bool,
}

struct TierState {
    /// Live pack-time reservations against the tier's capacity.
    reserved: u64,
    counters: TierCounters,
}

/// An ordered stack of offload tiers (0 = fastest). Interior-mutable:
/// every method takes `&self`, so a stack can live inside the shared
/// [`crate::TensorCache`].
pub struct TierStack {
    inner: Mutex<Vec<(Tier, TierState)>>,
}

impl TierStack {
    /// A stack over `tiers`, front first.
    ///
    /// # Panics
    /// Panics if `tiers` is empty — a cache without storage is a
    /// construction-time configuration bug, not a runtime condition.
    pub fn new(tiers: Vec<Tier>) -> TierStack {
        assert!(!tiers.is_empty(), "a TierStack needs at least one tier");
        let inner = tiers
            .into_iter()
            .map(|t| {
                let counters = TierCounters {
                    name: t.name.clone(),
                    ..TierCounters::default()
                };
                (
                    t,
                    TierState {
                        reserved: 0,
                        counters,
                    },
                )
            })
            .collect();
        TierStack {
            inner: Mutex::new(inner),
        }
    }

    /// The flat-compatibility stack: one unbounded placement tier over
    /// `device`, priced on link 0. Reproduces the pre-tier behavior
    /// exactly (admission never refuses; failures surface at the device).
    pub fn single(device: Arc<dyn OffloadTarget>) -> TierStack {
        let name = device.name().to_owned();
        TierStack::new(vec![Tier::new(name, device, 0)])
    }

    /// Appends a demotion-only tier priced on the *front* tier's link —
    /// how [`crate::TensorCache::set_fallback_target`] re-expresses the
    /// flat design's fallback target (demoted loads travel the same
    /// simulated read channel they always did).
    pub fn push_demotion(&self, device: Arc<dyn OffloadTarget>) {
        let mut inner = self.inner.lock();
        let link = inner.first().map(|(t, _)| t.link).unwrap_or(0);
        let name = device.name().to_owned();
        let tier = Tier::new(name, device, link).demotion_only();
        let counters = TierCounters {
            name: tier.name.clone(),
            ..TierCounters::default()
        };
        inner.push((
            tier,
            TierState {
                reserved: 0,
                counters,
            },
        ));
    }

    /// Number of tiers.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// The stack's tier ids, front first — the only way code outside
    /// this module obtains a [`TierId`] other than through
    /// [`TierStack::reserve`] / [`TierStack::demote`].
    pub fn tier_ids(&self) -> Vec<TierId> {
        (0..self.inner.lock().len()).map(TierId).collect()
    }

    /// Always `false`: construction guarantees at least one tier.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// The tier's display name.
    pub fn name(&self, tier: TierId) -> String {
        let inner = self.inner.lock();
        inner
            .get(tier.0)
            .map(|(t, _)| t.name.clone())
            .unwrap_or_default()
    }

    /// Index of the simulated link the tier's transfers are priced on.
    pub fn link(&self, tier: TierId) -> usize {
        let inner = self.inner.lock();
        inner.get(tier.0).map(|(t, _)| t.link).unwrap_or(0)
    }

    /// The tier's device (shared handle).
    pub fn device(&self, tier: TierId) -> Option<Arc<dyn OffloadTarget>> {
        let inner = self.inner.lock();
        inner.get(tier.0).map(|(t, _)| t.device.clone())
    }

    /// The tier's device, or the I/O error every transfer to a tier that
    /// does not exist fails with.
    fn device_or_err(&self, tier: TierId) -> io::Result<Arc<dyn OffloadTarget>> {
        self.device(tier).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("{tier} does not exist"))
        })
    }

    /// The front tier's device — construction guarantees it exists
    /// (flat-era callers knew their single target by this handle).
    pub fn front_device(&self) -> Arc<dyn OffloadTarget> {
        self.inner.lock()[0].0.device.clone()
    }

    /// Live pack-time reservations against the tier.
    pub fn reserved_bytes(&self, tier: TierId) -> u64 {
        let inner = self.inner.lock();
        inner.get(tier.0).map(|(_, s)| s.reserved).unwrap_or(0)
    }

    /// Admits `bytes` into the first placement tier with capacity
    /// headroom, walking front to back; a skipped-full front tier makes
    /// the admission a *spill*. Returns `None` when every eligible tier
    /// is full — the caller keeps the tensor resident.
    #[must_use = "a dropped placement leaks its tier reservation"]
    pub fn reserve(&self, bytes: u64) -> Option<TierPlacement> {
        let mut inner = self.inner.lock();
        let mut skipped_full = false;
        for (idx, (tier, state)) in inner.iter_mut().enumerate() {
            if tier.role != TierRole::Placement {
                continue;
            }
            let fits = match tier.capacity_bytes {
                Some(cap) => state.reserved.saturating_add(bytes) <= cap,
                None => true,
            };
            if !fits {
                skipped_full = true;
                continue;
            }
            state.reserved += bytes;
            if skipped_full {
                state.counters.spilled_in_bytes += bytes;
            }
            return Some(TierPlacement {
                tier: TierId(idx),
                spilled: skipped_full,
            });
        }
        None
    }

    /// Writes `len` bytes under `key` to the tier's device, accounting
    /// the traffic on success.
    ///
    /// # Errors
    /// Propagates the device's I/O error (capacity, injected fault, a
    /// vanished spill directory); the caller recovers per its
    /// [`crate::RecoveryPolicy`].
    pub fn write(
        &self,
        tier: TierId,
        key: &TensorKey,
        data: Option<&[u8]>,
        len: u64,
    ) -> io::Result<()> {
        let device = self.device_or_err(tier)?;
        device.write(key, data, len)?;
        let mut inner = self.inner.lock();
        if let Some((_, state)) = inner.get_mut(tier.0) {
            state.counters.bytes_written += len;
            state.counters.stores += 1;
        }
        Ok(())
    }

    /// Writes a sealed segment — every member of `items` — to the
    /// tier's device in one batched operation
    /// ([`OffloadTarget::write_batch`]): one device store, `sum(len)`
    /// bytes of write traffic. Members keep their per-key identity for
    /// later reads and removes.
    ///
    /// # Errors
    /// Propagates the device's I/O error; the device has already
    /// unwound any partially written members, so the caller recovers at
    /// segment granularity per its [`crate::RecoveryPolicy`].
    pub fn write_segment(&self, tier: TierId, items: &[BatchItem<'_>]) -> io::Result<()> {
        let device = self.device_or_err(tier)?;
        device.write_batch(items)?;
        let total: u64 = items.iter().map(|(_, _, len)| *len).sum();
        let mut inner = self.inner.lock();
        if let Some((_, state)) = inner.get_mut(tier.0) {
            state.counters.bytes_written += total;
            state.counters.stores += 1;
        }
        Ok(())
    }

    /// Reads the `len` bytes stored under `key` back from the tier
    /// (`Ok(None)` for symbolic entries), accounting the traffic on
    /// success.
    ///
    /// # Errors
    /// Propagates the device's I/O error; the cache retries
    /// [`crate::config::MAX_IO_RETRIES`] times.
    pub fn read(&self, tier: TierId, key: &TensorKey, len: u64) -> io::Result<Option<Vec<u8>>> {
        let device = self.device_or_err(tier)?;
        let data = device.read(key)?;
        let mut inner = self.inner.lock();
        if let Some((_, state)) = inner.get_mut(tier.0) {
            state.counters.bytes_read += len;
            state.counters.loads += 1;
        }
        Ok(data)
    }

    /// Drops the entry for `key` and returns its reservation to the
    /// tier (idempotent at the device level).
    pub fn remove(&self, tier: TierId, key: &TensorKey, len: u64) {
        self.unreserve(tier, len);
        if let Some(device) = self.device(tier) {
            device.remove(key);
        }
    }

    /// Returns a reservation of `len` bytes to `tier` without touching
    /// its device — for bytes that were admitted but never written (a
    /// forwarded tensor, a refused store).
    pub fn unreserve(&self, tier: TierId, len: u64) {
        if let Some((_, state)) = self.inner.lock().get_mut(tier.0) {
            state.reserved = state.reserved.saturating_sub(len);
        }
    }

    /// Demotes `len` bytes under `key` from `from` to the first tier
    /// below it (any role) that admits and accepts them, retrying each
    /// candidate's device up to `1 + max_retries` times. On success the
    /// reservation moves from `from` to the destination and the bytes
    /// are accounted as demotion-in traffic there. Returns the
    /// destination, or `None` when no lower tier took the bytes.
    pub fn demote(
        &self,
        from: TierId,
        key: &TensorKey,
        data: Option<&[u8]>,
        len: u64,
        max_retries: u32,
    ) -> Option<TierId> {
        let candidates: Vec<(usize, Arc<dyn OffloadTarget>)> = {
            let inner = self.inner.lock();
            inner
                .iter()
                .enumerate()
                .skip(from.0 + 1)
                .filter(|(_, (tier, state))| match tier.capacity_bytes {
                    Some(cap) => state.reserved.saturating_add(len) <= cap,
                    None => true,
                })
                .map(|(idx, (tier, _))| (idx, tier.device.clone()))
                .collect()
        };
        for (idx, device) in candidates {
            for _ in 0..=max_retries {
                if device.write(key, data, len).is_ok() {
                    let mut inner = self.inner.lock();
                    if let Some((_, state)) = inner.get_mut(idx) {
                        state.reserved += len;
                        state.counters.bytes_written += len;
                        state.counters.stores += 1;
                        state.counters.demoted_in_bytes += len;
                    }
                    if let Some((_, state)) = inner.get_mut(from.0) {
                        state.reserved = state.reserved.saturating_sub(len);
                    }
                    return Some(TierId(idx));
                }
            }
        }
        None
    }

    /// Static descriptions of the placement-eligible tiers, front
    /// first — the cost model's view of the stack (demotion-only tiers
    /// are a fault-recovery path and take no pack-time placements).
    pub fn placement_tiers(&self) -> Vec<TierSpec> {
        let inner = self.inner.lock();
        inner
            .iter()
            .filter(|(t, _)| t.role == TierRole::Placement)
            .map(|(t, _)| TierSpec {
                name: t.name.clone(),
                link: t.link,
                capacity_bytes: t.capacity_bytes,
            })
            .collect()
    }

    /// Snapshot of every tier's counters, front first.
    pub fn counters(&self) -> Vec<TierCounters> {
        let inner = self.inner.lock();
        inner.iter().map(|(_, s)| s.counters.clone()).collect()
    }

    /// Zeroes the per-step counters (reservations are live state and
    /// survive — a fresh step starts with whatever is still stored).
    pub fn reset_counters(&self) {
        let mut inner = self.inner.lock();
        for (tier, state) in inner.iter_mut() {
            state.counters = TierCounters {
                name: tier.name.clone(),
                ..TierCounters::default()
            };
        }
    }

    /// Sum of every tier's device-accepted write traffic this step.
    pub fn total_bytes_written(&self) -> u64 {
        let inner = self.inner.lock();
        inner.iter().map(|(_, s)| s.counters.bytes_written).sum()
    }
}

impl fmt::Debug for TierStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        let mut d = f.debug_list();
        for (tier, state) in inner.iter() {
            d.entry(&format_args!(
                "{} (link {}, {:?}, reserved {})",
                tier.name, tier.link, tier.role, state.reserved
            ));
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::CpuTarget;

    fn key(stamp: u64) -> TensorKey {
        TensorKey {
            stamp,
            shape: vec![2, 2],
        }
    }

    fn two_tier(front_cap: u64) -> TierStack {
        TierStack::new(vec![
            Tier::new("dram", Arc::new(CpuTarget::new(front_cap)), 0).with_capacity(front_cap),
            Tier::new("ssd", Arc::new(CpuTarget::new(1 << 30)), 1),
        ])
    }

    #[test]
    fn single_stack_admits_unbounded() {
        let stack = TierStack::single(Arc::new(CpuTarget::new(10)));
        assert_eq!(
            stack.reserve(u64::MAX / 2),
            Some(TierPlacement {
                tier: TierId(0),
                spilled: false,
            })
        );
    }

    #[test]
    fn full_front_tier_spills_to_the_next() {
        let stack = two_tier(100);
        assert_eq!(
            stack.reserve(80),
            Some(TierPlacement {
                tier: TierId(0),
                spilled: false,
            })
        );
        assert_eq!(
            stack.reserve(40),
            Some(TierPlacement {
                tier: TierId(1),
                spilled: true,
            })
        );
        assert_eq!(stack.counters()[1].spilled_in_bytes, 40);
        // Releasing the front admission lets the next one in again.
        stack.remove(TierId(0), &key(1), 80);
        assert_eq!(
            stack.reserve(100),
            Some(TierPlacement {
                tier: TierId(0),
                spilled: false,
            })
        );
    }

    #[test]
    fn exhausted_stack_refuses() {
        let stack = TierStack::new(vec![
            Tier::new("dram", Arc::new(CpuTarget::new(10)), 0).with_capacity(10)
        ]);
        assert!(stack.reserve(8).is_some());
        assert!(stack.reserve(8).is_none());
    }

    #[test]
    fn placement_tiers_skip_demotion_only_levels() {
        let stack = TierStack::new(vec![
            Tier::new("dram", Arc::new(CpuTarget::new(10)), 0).with_capacity(10),
            Tier::new("ssd", Arc::new(CpuTarget::new(1 << 20)), 1),
            Tier::new("cpu-fb", Arc::new(CpuTarget::new(1 << 20)), 0).demotion_only(),
        ]);
        let specs = stack.placement_tiers();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "dram");
        assert_eq!(specs[0].capacity_bytes, Some(10));
        assert_eq!(specs[1].link, 1);
    }

    #[test]
    fn demotion_only_tiers_are_skipped_by_placement() {
        let stack = TierStack::new(vec![
            Tier::new("dram", Arc::new(CpuTarget::new(10)), 0).with_capacity(10),
            Tier::new("cpu-fb", Arc::new(CpuTarget::new(1 << 20)), 0).demotion_only(),
        ]);
        assert!(stack.reserve(8).is_some());
        assert!(
            stack.reserve(8).is_none(),
            "fallback is not a placement tier"
        );
    }

    #[test]
    fn demote_moves_reservation_and_accounts_traffic() {
        let stack = two_tier(100);
        assert!(stack.reserve(60).is_some());
        let k = key(1);
        // Pretend the front device refused the write; demote directly.
        let dest = TierId(1);
        assert_eq!(stack.demote(TierId(0), &k, None, 60, 0), Some(dest));
        assert_eq!(stack.reserved_bytes(TierId(0)), 0);
        assert_eq!(stack.reserved_bytes(dest), 60);
        let c = stack.counters();
        assert_eq!(c[1].demoted_in_bytes, 60);
        assert_eq!(c[1].bytes_written, 60);
        assert_eq!(stack.read(dest, &k, 60).ok(), Some(None));
        stack.remove(dest, &k, 60);
        assert_eq!(stack.reserved_bytes(dest), 0);
    }

    #[test]
    fn write_segment_accounts_one_store_for_all_members() {
        let stack = two_tier(100);
        assert!(stack.reserve(12).is_some());
        let keys: Vec<TensorKey> = (10..13).map(key).collect();
        let items: Vec<BatchItem<'_>> = keys.iter().map(|k| (k, None, 4u64)).collect();
        assert!(stack.write_segment(TierId(0), &items).is_ok());
        let c = stack.counters();
        assert_eq!(c[0].bytes_written, 12);
        assert_eq!(c[0].stores, 1, "a segment is one device store");
        // Members stay individually readable and removable.
        assert_eq!(stack.read(TierId(0), &keys[1], 4).ok(), Some(None));
        stack.remove(TierId(0), &keys[1], 4);
        assert!(stack.read(TierId(0), &keys[1], 4).is_err());
    }

    #[test]
    fn failed_segment_write_accounts_nothing() {
        let stack = TierStack::new(vec![Tier::new("tiny", Arc::new(CpuTarget::new(6)), 0)]);
        let keys: Vec<TensorKey> = (20..23).map(key).collect();
        let items: Vec<BatchItem<'_>> = keys.iter().map(|k| (k, None, 4u64)).collect();
        assert!(stack.write_segment(TierId(0), &items).is_err());
        let c = stack.counters();
        assert_eq!(c[0].bytes_written, 0);
        assert_eq!(c[0].stores, 0);
    }

    #[test]
    fn write_read_remove_roundtrip_accounts_per_tier() {
        let stack = two_tier(100);
        assert!(stack.reserve(4).is_some());
        let k = key(2);
        assert!(stack.write(TierId(0), &k, Some(&[1, 2, 3, 4]), 4).is_ok());
        assert_eq!(
            stack.read(TierId(0), &k, 4).ok().flatten(),
            Some(vec![1, 2, 3, 4])
        );
        let c = stack.counters();
        assert_eq!(c[0].bytes_written, 4);
        assert_eq!(c[0].bytes_read, 4);
        assert_eq!(c[0].stores, 1);
        assert_eq!(c[0].loads, 1);
        assert_eq!(stack.total_bytes_written(), 4);
        stack.remove(TierId(0), &k, 4);
        assert!(stack.read(TierId(0), &k, 4).is_err());
        stack.reset_counters();
        assert_eq!(stack.total_bytes_written(), 0);
        assert_eq!(stack.counters()[0].name, "dram");
    }
}
