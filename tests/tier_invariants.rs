//! Property-based tests for the tiered offload stack: every stored byte
//! lives in exactly one tier, spills and demotions conserve bytes, and
//! the per-tier counters sum back to the aggregate the flat design kept.

use proptest::prelude::*;
use ssdtrain::id::TensorKey;
use ssdtrain::{CpuTarget, Tier, TierLedger, TierStack};
use std::sync::Arc;

fn key(stamp: u64, len: u64) -> TensorKey {
    TensorKey {
        stamp,
        shape: vec![len as usize],
    }
}

/// A bounded DRAM front tier spilling into an unbounded SSD-like tier,
/// with an empty ledger.
fn two_tier(front_cap: u64) -> (TierStack, TierLedger) {
    let stack = TierStack::new(vec![
        Tier::new("dram", Arc::new(CpuTarget::new(front_cap)), 0).with_capacity(front_cap),
        Tier::new("ssd", Arc::new(CpuTarget::new(u64::MAX)), 1),
    ]);
    let ledger = TierLedger::new(&stack);
    (stack, ledger)
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
            let k = key(i as u64 + 1, len);
            let p = ledger.reserve(&stack, len).expect("ssd tier is unbounded");
            let payload = vec![(i % 251) as u8; len as usize];
            prop_assert!(ledger.write_segment(&stack, p.tier, &[(&k, Some(&payload), len)]).is_ok());
            placed.push((k, len, p.tier, payload));
        }
        for (k, len, home, payload) in &placed {
            for &id in &ids {
                let mut got = None;
                let read = ledger.read(&stack, id, k, *len, &mut Vec::new(), &mut |d| {
                    got = d.map(<[u8]>::to_vec);
                });
                let got = read.map(|()| got);
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
            let k = key(i as u64 + 1, len);
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
