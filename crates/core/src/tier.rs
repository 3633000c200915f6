//! Tiered offload backends: an ordered stack of capacity-bounded tiers.
//!
//! The paper's Figure 5 keeps a host-DRAM offloader alongside the SSD
//! path; follow-up systems (10Cache, MemAscend) show the interesting
//! regime is *tiered* — a fast DRAM front tier of bounded capacity
//! spilling into a high-endurance SSD array. [`TierStack`] expresses
//! that as an ordered list of [`Tier`]s, each owning a device
//! ([`OffloadTarget`]), an optional byte capacity and the index of the
//! simulated link its transfers are priced on. The stack is a read-only
//! description; what its tiers hold — reservations and per-step counters
//! — is a ledger the cache keeps in its locked state.
//!
//! Semantics:
//!
//! * **Placement / spill** — the ledger admits a tensor into
//!   the first placement-eligible tier with capacity headroom; a tensor
//!   that does not fit the front tier *spills* to the next one. When no
//!   tier has room, admission refuses and the cache keeps the
//!   tensor resident (graceful refusal, never an error).
//! * **Demotion** — a tier whose device refuses a write at commit time
//!   demotes the bytes to the next tier down;
//!   this is how [`crate::RecoveryPolicy::FallbackTarget`] is expressed
//!   (the fallback target is simply an appended demotion-only tier).
//! * **Accounting** — every tier keeps its own [`TierCounters`]
//!   (device-write / read-back / spill-in / demotion-in traffic), so the
//!   aggregate counters in [`crate::OffloadStats`] split per tier.
//!
//! A single-tier stack ([`TierStack::single`]) offloads to one
//! `OffloadTarget`: unbounded admission, every failure surfacing at
//! device-write time.

use crate::id::TensorKey;
use crate::target::{BatchItem, OffloadTarget};
use std::borrow::Cow;
use std::fmt;
use std::io;
use std::sync::Arc;

/// Index of a tier inside a [`TierStack`] (0 = fastest / frontmost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TierId(pub(crate) usize);

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

/// Whether new tensors may be *placed* on a tier, or whether it only
/// absorbs demotions from the tiers above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum TierRole {
    /// Eligible for pack-time placement (and demotions).
    #[default]
    Placement,
    /// Only reachable by demotion: the spill of last resort, such as
    /// the fallback target.
    DemotionOnly,
}

/// One storage level of a [`TierStack`]: a device plus its admission
/// capacity and the simulated link its transfers are priced on.
pub struct Tier {
    name: Cow<'static, str>,
    device: Arc<dyn OffloadTarget>,
    capacity_bytes: Option<u64>,
    link: usize,
    role: TierRole,
}

impl Tier {
    /// A placement tier over `device`, unbounded, priced on `link`
    /// (an index into the [`crate::IoEngine`]'s tier links).
    pub fn new(
        name: impl Into<Cow<'static, str>>,
        device: Arc<dyn OffloadTarget>,
        link: usize,
    ) -> Tier {
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

/// Per-tier traffic counters for one training step (reset at each
/// step's start; surfaced as
/// [`crate::OffloadStats::tiers`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TierCounters {
    /// The tier's name (stable across steps): borrowed when the tier was
    /// named by a literal, so a snapshot copies no string.
    pub name: Cow<'static, str>,
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
    /// stats snapshot is taken). This and the busy seconds below are
    /// the link's, given to the first tier priced on it: a demotion
    /// tier on the front tier's link reports 0.
    pub stall_secs: f64,
    /// Seconds this tier's link spent transferring stores this step.
    pub write_busy_secs: f64,
    /// Seconds this tier's link spent transferring loads this step.
    pub read_busy_secs: f64,
}

/// Static description of one placement-eligible tier — the shape the
/// cost model ([`crate::costmodel::CostModel`]) consumes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TierSpec {
    /// Index of the simulated link its transfers are priced on.
    pub(crate) link: usize,
    /// Admission capacity, `None` when unbounded.
    pub(crate) capacity_bytes: Option<u64>,
}

/// Where [`TierLedger::reserve`] admitted a tensor. The placement *is*
/// the reservation: whoever receives it owes the tier one
/// [`TierLedger::remove`] of the same bytes.
#[must_use = "a dropped placement leaks its tier reservation"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TierPlacement {
    /// The tier holding the reservation.
    pub(crate) tier: TierId,
    /// Whether a fuller, faster tier was skipped (a spill).
    pub(crate) spilled: bool,
}

/// An ordered stack of offload tiers (0 = fastest): what each tier is
/// — name, device, capacity, link, role — fixed at construction and read
/// without a lock. What the tiers hold is a ledger, kept by the cache
/// that places tensors on the stack.
#[derive(Debug)]
pub struct TierStack {
    tiers: Vec<Tier>,
}

impl TierStack {
    /// A stack over `tiers`, front first.
    ///
    /// # Panics
    /// Panics if `tiers` is empty — a cache without storage is a
    /// construction-time configuration bug, not a runtime condition.
    pub fn new(tiers: Vec<Tier>) -> TierStack {
        assert!(!tiers.is_empty(), "a TierStack needs at least one tier");
        TierStack { tiers }
    }

    /// One unbounded placement tier over `device`, priced on link 0:
    /// admission never refuses, and failures surface at the device.
    pub fn single(device: Arc<dyn OffloadTarget>) -> TierStack {
        let name = device.name().to_owned();
        TierStack::new(vec![Tier::new(name, device, 0)])
    }

    /// The stack's tier ids, front first — the only way code outside
    /// this crate obtains a [`TierId`].
    pub fn tier_ids(&self) -> Vec<TierId> {
        (0..self.tiers.len()).map(TierId).collect()
    }

    /// The tier's display name.
    pub fn name(&self, tier: TierId) -> &str {
        self.tiers.get(tier.0).map_or("", |t| &t.name)
    }

    /// Index of the simulated link the tier's transfers are priced on.
    pub fn link(&self, tier: TierId) -> usize {
        self.tiers.get(tier.0).map_or(0, |t| t.link)
    }

    /// The tier's device (shared handle).
    pub fn device(&self, tier: TierId) -> Option<Arc<dyn OffloadTarget>> {
        self.tiers.get(tier.0).map(|t| t.device.clone())
    }

    /// The tier's device, or the I/O error every transfer to a tier that
    /// does not exist fails with.
    fn device_or_err(&self, tier: TierId) -> io::Result<&dyn OffloadTarget> {
        let t = self.tiers.get(tier.0).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("{tier} does not exist"))
        })?;
        Ok(&*t.device)
    }

    /// Static descriptions of the placement-eligible tiers, front
    /// first — the cost model's view of the stack (demotion-only tiers
    /// are a fault-recovery path and take no pack-time placements).
    pub(crate) fn placement_tiers(&self) -> Vec<TierSpec> {
        self.tiers
            .iter()
            .filter(|t| t.role == TierRole::Placement)
            .map(|t| TierSpec {
                link: t.link,
                capacity_bytes: t.capacity_bytes,
            })
            .collect()
    }
}

/// What a [`TierStack`]'s tiers hold: each tier's live pack-time
/// reservations and this step's [`TierCounters`], indexed like the
/// stack. A plain value its owner updates through `&mut` — the
/// [`crate::TensorCache`] keeps one in the state behind its lock — and
/// every method that moves bytes takes the stack it accounts for.
#[derive(Debug, Default)]
pub(crate) struct TierLedger {
    reserved: Vec<u64>,
    counters: Vec<TierCounters>,
}

impl TierLedger {
    /// An empty ledger for `stack`: nothing reserved, counters zeroed.
    pub(crate) fn new(stack: &TierStack) -> TierLedger {
        let counters = stack.tiers.iter().map(|t| TierCounters {
            name: t.name.clone(),
            ..TierCounters::default()
        });
        TierLedger {
            reserved: vec![0; stack.tiers.len()],
            counters: counters.collect(),
        }
    }

    /// Live pack-time reservations against the tier.
    pub(crate) fn reserved_bytes(&self, tier: TierId) -> u64 {
        self.reserved.get(tier.0).copied().unwrap_or(0)
    }

    /// Admits `bytes` into the first placement tier of `stack` with
    /// capacity headroom, walking front to back; a skipped-full front
    /// tier makes the admission a *spill*. Returns `None` when every
    /// eligible tier is full — the caller keeps the tensor resident.
    #[must_use = "a dropped placement leaks its tier reservation"]
    pub(crate) fn reserve(&mut self, stack: &TierStack, bytes: u64) -> Option<TierPlacement> {
        let mut skipped_full = false;
        for (idx, tier) in stack.tiers.iter().enumerate() {
            if tier.role != TierRole::Placement {
                continue;
            }
            if !self.fits(tier, idx, bytes) {
                skipped_full = true;
                continue;
            }
            self.reserved[idx] += bytes;
            if skipped_full {
                self.counters[idx].spilled_in_bytes += bytes;
            }
            return Some(TierPlacement {
                tier: TierId(idx),
                spilled: skipped_full,
            });
        }
        None
    }

    /// Whether `bytes` more fit under the capacity of `tier`, the
    /// stack's tier `idx`.
    fn fits(&self, tier: &Tier, idx: usize, bytes: u64) -> bool {
        match tier.capacity_bytes {
            Some(cap) => self.reserved[idx].saturating_add(bytes) <= cap,
            None => true,
        }
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
    pub(crate) fn write_segment(
        &mut self,
        stack: &TierStack,
        tier: TierId,
        items: &[BatchItem<'_>],
    ) -> io::Result<()> {
        stack.device_or_err(tier)?.write_batch(items)?;
        let c = &mut self.counters[tier.0];
        c.bytes_written += items.iter().map(|(_, _, len)| *len).sum::<u64>();
        c.stores += 1;
        Ok(())
    }

    /// Reads the `len` bytes stored under `key` back from the tier and
    /// lends them to `f` (`None` for symbolic entries) through
    /// [`OffloadTarget::read_with`], accounting the traffic on success.
    ///
    /// # Errors
    /// Propagates the device's I/O error; the cache retries
    /// [`crate::config::MAX_IO_RETRIES`] times.
    pub(crate) fn read(
        &mut self,
        stack: &TierStack,
        tier: TierId,
        key: &TensorKey,
        len: u64,
        scratch: &mut Vec<u8>,
        f: &mut dyn FnMut(Option<&[u8]>),
    ) -> io::Result<()> {
        stack.device_or_err(tier)?.read_with(key, scratch, f)?;
        let c = &mut self.counters[tier.0];
        c.bytes_read += len;
        c.loads += 1;
        Ok(())
    }

    /// Drops the entry for `key` and returns its reservation to the
    /// tier (idempotent at the device level).
    pub(crate) fn remove(&mut self, stack: &TierStack, tier: TierId, key: &TensorKey, len: u64) {
        self.unreserve(tier, len);
        if let Ok(device) = stack.device_or_err(tier) {
            device.remove(key);
        }
    }

    /// Returns a reservation of `len` bytes to `tier` without touching
    /// its device — for bytes that were admitted but never written (a
    /// forwarded tensor, a refused store).
    pub(crate) fn unreserve(&mut self, tier: TierId, len: u64) {
        if let Some(reserved) = self.reserved.get_mut(tier.0) {
            *reserved = reserved.saturating_sub(len);
        }
    }

    /// Demotes `len` bytes under `key` from `from` to the first tier
    /// below it (any role) that admits and accepts them, retrying each
    /// candidate's device up to `1 + max_retries` times. On success the
    /// reservation moves from `from` to the destination and the bytes
    /// are accounted as demotion-in traffic there. Returns the
    /// destination, or `None` when no lower tier took the bytes.
    pub(crate) fn demote(
        &mut self,
        stack: &TierStack,
        from: TierId,
        key: &TensorKey,
        data: Option<&[u8]>,
        len: u64,
        max_retries: u32,
    ) -> Option<TierId> {
        for (idx, tier) in stack.tiers.iter().enumerate().skip(from.0 + 1) {
            if !self.fits(tier, idx, len) {
                continue;
            }
            if (0..=max_retries).any(|_| tier.device.write(key, data, len).is_ok()) {
                self.reserved[idx] += len;
                let c = &mut self.counters[idx];
                c.bytes_written += len;
                c.stores += 1;
                c.demoted_in_bytes += len;
                self.unreserve(from, len);
                return Some(TierId(idx));
            }
        }
        None
    }

    /// Every tier's counters this step, front first.
    pub(crate) fn counters(&self) -> &[TierCounters] {
        &self.counters
    }

    /// Zeroes the per-step counters (reservations are live state and
    /// survive — a fresh step starts with whatever is still stored).
    pub(crate) fn reset_counters(&mut self) {
        for c in &mut self.counters {
            let name = std::mem::take(&mut c.name);
            *c = TierCounters {
                name,
                ..TierCounters::default()
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::CpuTarget;
    use proptest::prelude::*;

    fn key(stamp: u64) -> TensorKey {
        TensorKey {
            stamp,
            shape: vec![2, 2],
        }
    }

    /// What the borrowing read lends, copied out.
    fn read(
        stack: &TierStack,
        ledger: &mut TierLedger,
        tier: TierId,
        k: &TensorKey,
        len: u64,
    ) -> io::Result<Option<Vec<u8>>> {
        let mut out = None;
        ledger.read(stack, tier, k, len, &mut Vec::new(), &mut |d| {
            out = d.map(<[u8]>::to_vec)
        })?;
        Ok(out)
    }

    /// `stack` with an empty ledger of its own.
    fn ledgered(stack: TierStack) -> (TierStack, TierLedger) {
        let ledger = TierLedger::new(&stack);
        (stack, ledger)
    }

    fn two_tier(front_cap: u64) -> (TierStack, TierLedger) {
        ledgered(TierStack::new(vec![
            Tier::new("dram", Arc::new(CpuTarget::new(front_cap)), 0).with_capacity(front_cap),
            Tier::new("ssd", Arc::new(CpuTarget::new(1 << 30)), 1),
        ]))
    }

    #[test]
    fn single_stack_admits_unbounded() {
        let (stack, mut ledger) = ledgered(TierStack::single(Arc::new(CpuTarget::new(10))));
        assert_eq!(
            ledger.reserve(&stack, u64::MAX / 2),
            Some(TierPlacement {
                tier: TierId(0),
                spilled: false,
            })
        );
    }

    #[test]
    fn full_front_tier_spills_to_the_next() {
        let (stack, mut ledger) = two_tier(100);
        assert_eq!(
            ledger.reserve(&stack, 80),
            Some(TierPlacement {
                tier: TierId(0),
                spilled: false,
            })
        );
        assert_eq!(
            ledger.reserve(&stack, 40),
            Some(TierPlacement {
                tier: TierId(1),
                spilled: true,
            })
        );
        assert_eq!(ledger.counters()[1].spilled_in_bytes, 40);
        // Releasing the front admission lets the next one in again.
        ledger.remove(&stack, TierId(0), &key(1), 80);
        assert_eq!(
            ledger.reserve(&stack, 100),
            Some(TierPlacement {
                tier: TierId(0),
                spilled: false,
            })
        );
    }

    #[test]
    fn exhausted_stack_refuses() {
        let (stack, mut ledger) = ledgered(TierStack::new(vec![Tier::new(
            "dram",
            Arc::new(CpuTarget::new(10)),
            0,
        )
        .with_capacity(10)]));
        assert!(ledger.reserve(&stack, 8).is_some());
        assert!(ledger.reserve(&stack, 8).is_none());
    }

    #[test]
    fn placement_tiers_skip_demotion_only_levels() {
        let stack = TierStack::new(vec![
            Tier::new("dram", Arc::new(CpuTarget::new(10)), 0).with_capacity(10),
            Tier::new("ssd", Arc::new(CpuTarget::new(1 << 20)), 1),
            Tier::new("cpu-fb", Arc::new(CpuTarget::new(1 << 20)), 0).demotion_only(),
        ]);
        let specs = stack.placement_tiers();
        let links_and_caps: Vec<_> = specs.iter().map(|s| (s.link, s.capacity_bytes)).collect();
        assert_eq!(links_and_caps, [(0, Some(10)), (1, None)]);
    }

    #[test]
    fn demotion_only_tiers_are_skipped_by_placement() {
        let (stack, mut ledger) = ledgered(TierStack::new(vec![
            Tier::new("dram", Arc::new(CpuTarget::new(10)), 0).with_capacity(10),
            Tier::new("cpu-fb", Arc::new(CpuTarget::new(1 << 20)), 0).demotion_only(),
        ]));
        assert!(ledger.reserve(&stack, 8).is_some());
        assert!(
            ledger.reserve(&stack, 8).is_none(),
            "fallback is not a placement tier"
        );
    }

    #[test]
    fn demote_moves_reservation_and_accounts_traffic() {
        let (stack, mut ledger) = two_tier(100);
        assert!(ledger.reserve(&stack, 60).is_some());
        let k = key(1);
        // Pretend the front device refused the write; demote directly.
        let dest = TierId(1);
        assert_eq!(
            ledger.demote(&stack, TierId(0), &k, None, 60, 0),
            Some(dest)
        );
        assert_eq!(ledger.reserved_bytes(TierId(0)), 0);
        assert_eq!(ledger.reserved_bytes(dest), 60);
        let c = ledger.counters();
        assert_eq!(c[1].demoted_in_bytes, 60);
        assert_eq!(c[1].bytes_written, 60);
        assert_eq!(read(&stack, &mut ledger, dest, &k, 60).ok(), Some(None));
        ledger.remove(&stack, dest, &k, 60);
        assert_eq!(ledger.reserved_bytes(dest), 0);
    }

    #[test]
    fn write_segment_accounts_one_store_for_all_members() {
        let (stack, mut ledger) = two_tier(100);
        assert!(ledger.reserve(&stack, 12).is_some());
        let keys: Vec<TensorKey> = (10..13).map(key).collect();
        let items: Vec<BatchItem<'_>> = keys.iter().map(|k| (k, None, 4u64)).collect();
        assert!(ledger.write_segment(&stack, TierId(0), &items).is_ok());
        let c = ledger.counters();
        assert_eq!(c[0].bytes_written, 12);
        assert_eq!(c[0].stores, 1, "a segment is one device store");
        // Members stay individually readable and removable.
        assert_eq!(
            read(&stack, &mut ledger, TierId(0), &keys[1], 4).ok(),
            Some(None)
        );
        ledger.remove(&stack, TierId(0), &keys[1], 4);
        assert!(read(&stack, &mut ledger, TierId(0), &keys[1], 4).is_err());
    }

    #[test]
    fn failed_segment_write_accounts_nothing() {
        let (stack, mut ledger) = ledgered(TierStack::new(vec![Tier::new(
            "tiny",
            Arc::new(CpuTarget::new(6)),
            0,
        )]));
        let keys: Vec<TensorKey> = (20..23).map(key).collect();
        let items: Vec<BatchItem<'_>> = keys.iter().map(|k| (k, None, 4u64)).collect();
        assert!(ledger.write_segment(&stack, TierId(0), &items).is_err());
        let c = ledger.counters();
        assert_eq!(c[0].bytes_written, 0);
        assert_eq!(c[0].stores, 0);
    }

    #[test]
    fn write_read_remove_roundtrip_accounts_per_tier() {
        let (stack, mut ledger) = two_tier(100);
        assert!(ledger.reserve(&stack, 4).is_some());
        let k = key(2);
        assert!(ledger
            .write_segment(&stack, TierId(0), &[(&k, Some(&[1, 2, 3, 4]), 4)])
            .is_ok());
        assert_eq!(
            read(&stack, &mut ledger, TierId(0), &k, 4).ok().flatten(),
            Some(vec![1, 2, 3, 4])
        );
        let c = ledger.counters();
        assert_eq!(c[0].bytes_written, 4);
        assert_eq!(c[0].bytes_read, 4);
        assert_eq!(c[0].stores, 1);
        assert_eq!(c[0].loads, 1);
        ledger.remove(&stack, TierId(0), &k, 4);
        assert!(read(&stack, &mut ledger, TierId(0), &k, 4).is_err());
        ledger.reset_counters();
        assert_eq!(ledger.counters()[0].bytes_written, 0);
        assert_eq!(ledger.counters()[0].name, "dram");
    }

    /// A one-dimensional key of `len` elements.
    fn sized_key(stamp: u64, len: u64) -> TensorKey {
        TensorKey {
            stamp,
            shape: vec![len as usize],
        }
    }

    proptest! {
        /// Placement puts every admitted tensor on exactly one tier: its
        /// payload reads back from that tier and from no other, and removal
        /// returns the reservation so the stack drains to empty.
        #[test]
        fn every_stored_byte_lives_in_exactly_one_tier(
            front_cap in 1u64..4_096,
            sizes in prop::collection::vec(1u64..2_048, 1..40),
        ) {
            let (stack, mut ledger) = two_tier(front_cap);
            let ids = stack.tier_ids();
            let mut placed = Vec::new();
            for (i, &len) in sizes.iter().enumerate() {
                let k = sized_key(i as u64 + 1, len);
                let p = ledger.reserve(&stack, len).expect("ssd tier is unbounded");
                let payload = vec![(i % 251) as u8; len as usize];
                prop_assert!(ledger.write_segment(&stack, p.tier, &[(&k, Some(&payload), len)]).is_ok());
                placed.push((k, len, p.tier, payload));
            }
            for (k, len, home, payload) in &placed {
                for &id in &ids {
                    let got = read(&stack, &mut ledger, id, k, *len);
                    if id == *home {
                        let back = got.ok().flatten();
                        prop_assert_eq!(
                            back.as_ref(),
                            Some(payload),
                            "payload must read back from its home tier"
                        );
                    } else {
                        prop_assert!(
                            got.is_err(),
                            "key {:?} must not exist on {}",
                            k,
                            stack.name(id)
                        );
                    }
                }
            }
            // Reservations account every admitted byte, tier by tier.
            for &id in &ids {
                let expect: u64 = placed
                    .iter()
                    .filter(|(_, _, home, _)| *home == id)
                    .map(|(_, len, _, _)| *len)
                    .sum();
                prop_assert_eq!(ledger.reserved_bytes(id), expect);
            }
            // Removal drains the stack completely.
            for (k, len, home, _) in &placed {
                ledger.remove(&stack, *home, k, *len);
            }
            for &id in &ids {
                prop_assert_eq!(ledger.reserved_bytes(id), 0);
            }
        }

        /// A spill moves the admission, not the bytes: the sum of reserved
        /// bytes across tiers equals the sum of admitted sizes, and the
        /// spill counter records exactly the bytes that skipped a full
        /// front tier.
        #[test]
        fn spills_conserve_bytes(
            front_cap in 1u64..2_048,
            sizes in prop::collection::vec(1u64..1_024, 1..50),
        ) {
            let (stack, mut ledger) = two_tier(front_cap);
            let ids = stack.tier_ids();
            let mut admitted = 0u64;
            let mut spilled = 0u64;
            for &len in &sizes {
                let p = ledger.reserve(&stack, len).expect("ssd tier is unbounded");
                admitted += len;
                if p.spilled {
                    prop_assert_eq!(p.tier, ids[1], "spills land behind the front tier");
                    spilled += len;
                } else {
                    prop_assert_eq!(p.tier, ids[0]);
                }
            }
            let reserved: u64 = ids.iter().map(|&id| ledger.reserved_bytes(id)).sum();
            prop_assert_eq!(reserved, admitted, "reservation is conserved across tiers");
            prop_assert!(
                ledger.reserved_bytes(ids[0]) <= front_cap,
                "the bounded tier never oversubscribes"
            );
            prop_assert_eq!(ledger.counters()[1].spilled_in_bytes, spilled);
        }

        /// Per-tier `bytes_written` sums to the aggregate the flat design
        /// exposed as the single target's write traffic, with or without
        /// demotions shuffling entries between tiers.
        #[test]
        fn per_tier_writes_sum_to_the_flat_aggregate(
            front_cap in 64u64..2_048,
            sizes in prop::collection::vec(1u64..512, 1..30),
            demote_mask in prop::collection::vec(any::<bool>(), 30),
        ) {
            let (stack, mut ledger) = two_tier(front_cap);
            let ids = stack.tier_ids();
            let mut written = 0u64;
            let mut demoted = 0u64;
            let mut placed = Vec::new();
            for (i, &len) in sizes.iter().enumerate() {
                let k = sized_key(i as u64 + 1, len);
                let p = ledger.reserve(&stack, len).expect("ssd tier is unbounded");
                prop_assert!(ledger.write_segment(&stack, p.tier, &[(&k, None, len)]).is_ok());
                written += len;
                placed.push((k, len, p.tier));
            }
            // Demote a subset of front-tier residents to the tier below.
            for (i, (k, len, home)) in placed.iter_mut().enumerate() {
                if *home == ids[0] && demote_mask[i % demote_mask.len()] {
                    let dest = ledger.demote(&stack, *home, k, None, *len, 0);
                    prop_assert_eq!(dest, Some(ids[1]), "the unbounded tier accepts");
                    *home = ids[1];
                    written += *len; // the destination device accepted a write
                    demoted += *len;
                }
            }
            let counters = ledger.counters();
            let per_tier: u64 = counters.iter().map(|c| c.bytes_written).sum();
            prop_assert_eq!(per_tier, written);
            prop_assert_eq!(counters[1].demoted_in_bytes, demoted);
            // Reservations still conserve the admitted bytes after demotion.
            let reserved: u64 = ids.iter().map(|&id| ledger.reserved_bytes(id)).sum();
            prop_assert_eq!(reserved, sizes.iter().sum::<u64>());
        }
    }
}
