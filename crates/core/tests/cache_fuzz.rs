//! Property-based fuzzing of the tensor-cache state machine: random
//! interleavings of pack / unpack / prefetch / scope-release / clock
//! advances — and of state-slot offloads, loads and releases, which live
//! in the same record map — must never corrupt data, leak records, or
//! break memory conservation, whatever the segment size, and whatever
//! store faults the target injects under each [`RecoveryPolicy`].
//!
//! Reservation conservation is checked here, at the cache level, because
//! nothing static can: a tier reservation escapes into the record that
//! owns it. After every `flush()` the reservations summed over all
//! tiers equal the bytes of the live state slots, and releasing those
//! leaves zero.

use proptest::prelude::*;
use ssdtrain::{
    CpuTarget, FaultyTarget, IoEngine, OffloadClass, RecoveryPolicy, StateSlot, TensorCache,
    TensorCacheConfig,
};
use ssdtrain_autograd::{ModuleHooks, Packed, Phase, SavedTensorHooks, ScopeInfo};
use ssdtrain_simhw::{FaultKind, FaultPlan, FaultTrigger, GpuMemory, SimClock};
use ssdtrain_tensor::{Device, MemClass, Tensor};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Action {
    /// Pack a fresh tensor of `len` elements under the current scope.
    Pack { len: usize },
    /// Re-pack an earlier tensor (dedup path), by index into the packed
    /// list.
    Repack { which: usize },
    /// Unpack one of the packed values.
    Unpack { which: usize },
    /// Advance the simulated clock.
    Advance { millis: u32 },
    /// Close the current scope in "backward" and open the next one.
    NextScope,
    /// Offload a fresh gradient tensor of `len` elements as a state slot.
    OffloadState { len: usize },
    /// Load one of the live state slots back and check its bytes.
    LoadState { which: usize },
    /// Release one of the live state slots.
    ReleaseState { which: usize },
    /// End-of-step flush, in the middle of the run.
    Flush,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1usize..512).prop_map(|len| Action::Pack { len }),
        (0usize..64).prop_map(|which| Action::Repack { which }),
        (0usize..64).prop_map(|which| Action::Unpack { which }),
        (0u32..2000).prop_map(|millis| Action::Advance { millis }),
        Just(Action::NextScope),
        (1usize..512).prop_map(|len| Action::OffloadState { len }),
        (0usize..64).prop_map(|which| Action::LoadState { which }),
        (0usize..64).prop_map(|which| Action::ReleaseState { which }),
        Just(Action::Flush),
    ]
}

/// A live state slot: its handle, the caller's tensor and the values it
/// must read back as.
type LiveState = (StateSlot, Tensor, Vec<f32>);

/// Loads `slot` back, waits for the bytes and returns them.
fn load_back(cache: &TensorCache, clock: &SimClock, (slot, t, _): &LiveState) -> Vec<f32> {
    let ready = cache.load_state(*slot).expect("live slot");
    clock.advance_to(ready);
    t.to_vec()
}

/// Tier reservations summed over the whole stack, the demotion tier
/// included.
fn reserved(cache: &TensorCache) -> u64 {
    let tiers = cache.tiers();
    let ids = tiers.tier_ids();
    ids.iter().map(|t| tiers.reserved_bytes(*t)).sum()
}

/// The bytes the live state slots hold reserved.
fn held(states: &[LiveState]) -> u64 {
    states.iter().map(|(_, t, _)| t.bytes()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_interleavings_preserve_data_and_memory(
        actions in prop::collection::vec(action_strategy(), 1..60),
        write_kbps in 1u64..1_000_000,
        segment_bytes in prop_oneof![Just(0u64), Just(1u64), Just(4096u64)],
        write_fault_prob in prop_oneof![Just(0.0f64), Just(0.3f64), Just(1.0f64)],
        recovery in prop_oneof![
            Just(RecoveryPolicy::FailStep),
            Just(RecoveryPolicy::KeepResident),
            Just(RecoveryPolicy::FallbackTarget),
        ],
        fault_seed in 0u64..1000,
    ) {
        let clock = SimClock::new();
        let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
        let dev = Device::cpu();
        dev.set_tracker(mem.clone());
        let io = IoEngine::new(clock.clone(), write_kbps as f64 * 1e3, 1e6);
        let cache = TensorCache::new(
            TensorCacheConfig {
                min_offload_numel: 0,
                adaptive: false,
                coalesce_segment_bytes: segment_bytes,
                recovery,
                ..TensorCacheConfig::default()
            },
            // Store faults only: every policy keeps a failed store's
            // bytes in memory, so the data checks below hold under all
            // of them (a failed *load* loses data by design).
            FaultyTarget::new(
                Arc::new(CpuTarget::new(1 << 40)),
                FaultPlan::new(fault_seed).with_recurring_fault(
                    FaultTrigger::Random { prob: write_fault_prob },
                    FaultKind::WriteError,
                ),
            ),
            io,
            mem.clone(),
        );
        cache.set_fallback_target(Arc::new(CpuTarget::new(1 << 40)));
        cache.begin_step();

        // Drive the module hooks directly (a synthetic forward pass).
        let mut scope_seq = 1u64;
        let open_scope = |cache: &TensorCache, seq: u64| {
            cache.forward_pre(&ScopeInfo {
                path: format!("m{seq}"),
                seq,
                micro_batch: 0,
            });
        };
        open_scope(&cache, scope_seq);

        // (packed value, expected bytes, scope it belongs to). Handles
        // die when their scope's backward completes — unpacking them
        // afterwards would be an engine bug, so the driver only unpacks
        // live ones, mirroring real tape behaviour.
        let mut packed: Vec<(Packed, Vec<f32>, u64)> = Vec::new();
        let mut tensors: Vec<Tensor> = Vec::new(); // keep-alive originals
        let mut states: Vec<LiveState> = Vec::new();

        for action in &actions {
            match action {
                Action::Pack { len } => {
                    let data: Vec<f32> =
                        (0..*len).map(|i| (i as f32) * 0.5 + packed.len() as f32).collect();
                    let t = Tensor::from_vec(data.clone(), [*len], &dev);
                    let p = cache.pack(&t);
                    packed.push((p, data, scope_seq));
                    tensors.push(t);
                }
                Action::Repack { which } => {
                    if !tensors.is_empty() {
                        let t = tensors[which % tensors.len()].clone();
                        let expect = t.to_vec_or_reload(&cache);
                        let p = cache.pack(&t);
                        packed.push((p, expect, scope_seq));
                    }
                }
                Action::Unpack { which } => {
                    let live: Vec<&(Packed, Vec<f32>, u64)> =
                        packed.iter().filter(|e| e.2 >= scope_seq).collect();
                    if !live.is_empty() {
                        let (p, expect, _) = live[which % live.len()];
                        let back = cache.unpack(p);
                        prop_assert_eq!(&back.to_vec(), expect, "unpack data");
                    }
                }
                Action::Advance { millis } => {
                    clock.advance_by(*millis as f64 / 1000.0);
                }
                Action::NextScope => {
                    // Close forward scope, then treat it as done in
                    // backward (release its records), then open a new one.
                    let info = ScopeInfo {
                        path: format!("m{scope_seq}"),
                        seq: scope_seq,
                        micro_batch: 0,
                    };
                    cache.forward_post(&info);
                    cache.backward_post(&info);
                    scope_seq += 1;
                    open_scope(&cache, scope_seq);
                }
                Action::OffloadState { len } => {
                    let data: Vec<f32> =
                        (0..*len).map(|i| -(i as f32) - states.len() as f32).collect();
                    let t = dev.with_class(MemClass::Gradient, || {
                        Tensor::from_vec(data.clone(), [*len], &dev)
                    });
                    // `None`: the store failed and recovery kept the
                    // tensor resident — no slot, no reservation.
                    if let Some(slot) = cache.offload_state(&t, OffloadClass::Gradient) {
                        states.push((slot, t, data));
                    }
                }
                Action::LoadState { which } => {
                    if !states.is_empty() {
                        let live = &states[which % states.len()];
                        prop_assert_eq!(&load_back(&cache, &clock, live), &live.2, "load_state data");
                    }
                }
                Action::ReleaseState { which } => {
                    if !states.is_empty() {
                        let (slot, _, _) = states.remove(which % states.len());
                        cache.release_state(slot);
                        prop_assert!(cache.load_state(slot).is_none(), "released slot");
                    }
                }
                Action::Flush => {
                    // Every packed handle dies with the flush; state
                    // slots must not.
                    cache.flush();
                    packed.clear();
                    prop_assert_eq!(reserved(&cache), held(&states), "reservations after flush");
                }
            }
        }

        // Whatever happened, every still-live value must resolve to its
        // original bytes.
        for (p, expect, scope) in &packed {
            if *scope >= scope_seq {
                let back = cache.unpack(p);
                prop_assert_eq!(&back.to_vec(), expect, "final unpack");
            }
        }
        // Flush and drop everything: no activation bytes may linger, and
        // the only records left — the only tier reservations — are the
        // live state slots'.
        cache.flush();
        drop(packed);
        drop(tensors);
        prop_assert_eq!(mem.resident(MemClass::Activation), 0);
        prop_assert_eq!(reserved(&cache), held(&states));
        // State slots survive the step boundary bit-exactly.
        cache.begin_step();
        for live in &states {
            prop_assert_eq!(&load_back(&cache, &clock, live), &live.2, "state after begin_step");
        }
        for (slot, _, _) in states.drain(..) {
            cache.release_state(slot);
        }
        prop_assert_eq!(reserved(&cache), 0);
        prop_assert_eq!(mem.resident(MemClass::Gradient), 0);
        // Stall accounting can only be non-negative.
        prop_assert!(cache.stats().stall_secs >= 0.0);
    }
}

/// Test helper: read a tensor's bytes even if the cache currently has its
/// storage offloaded (peek through the cache by unpacking is not possible
/// without the packed handle, so reconstruct from the original values
/// when resident, else defer to the recorded expectation).
trait ToVecOrReload {
    fn to_vec_or_reload(&self, cache: &TensorCache) -> Vec<f32>;
}

impl ToVecOrReload for Tensor {
    fn to_vec_or_reload(&self, _cache: &TensorCache) -> Vec<f32> {
        // Packing keeps data resident until a store commits, and commits
        // only release when the cache holds the last reference — which it
        // never does here because this suite keeps originals alive.
        self.to_vec()
    }
}

#[test]
fn phase_changes_are_idempotent() {
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 30));
    let io = IoEngine::new(clock.clone(), 1e9, 1e9);
    let cache = TensorCache::new(
        TensorCacheConfig::default(),
        Arc::new(CpuTarget::new(1 << 30)),
        io,
        mem,
    );
    for _ in 0..3 {
        cache.phase_changed(Phase::Forward);
        cache.phase_changed(Phase::Backward);
        cache.phase_changed(Phase::Recompute);
    }
    cache.flush();
}
