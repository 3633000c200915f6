//! Timing-differential suite: where tier link speed reaches the step
//! clock, and where it must not.
//!
//! Activation stores run on from forward into backward, where data
//! forwarding and store cancellation resolve the tail of the queue
//! (paper Section 3.3.2). On the stock testbed that hides every
//! transfer: a slower write link costs activation memory, not time, and
//! every backend reports the compute-bound step. Link speed reaches the
//! step only through what is left of the queue when backward has
//! consumed its last tensor — the drain at backward's exit
//! (`store_stall_secs`) — and through unpacks that must wait for a
//! record's own store to land before reloading it (`stall_secs`). The
//! differential tests therefore pin the offload set (no adaptive plan)
//! and disable store cancellation, so the whole queue has to be written,
//! and slow the array until forward + backward cannot hide it: the
//! dram, tiered and ssd backends then report *different* step times
//! ordered by their links, and slowing a link can only ever slow the
//! step. When bandwidth is ample the step collapses back to the
//! compute-bound time, bit-identically across link speeds.

use ssdtrain::{PlacementStrategy, TensorCacheConfig};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_simhw::SystemConfig;
use ssdtrain_train::{OffloadBackend, SessionConfig, StepMetrics, TrainSession};

/// The bench model (BERT H8192 L4, TP=2): 11.9 GB of activations a
/// step, against 1.375 s of forward + backward compute.
fn paper_model() -> ModelConfig {
    ModelConfig::paper_scale(Arch::Bert, 8192, 4).with_tp(2)
}

fn run_with(
    backend: OffloadBackend,
    system: SystemConfig,
    cache: TensorCacheConfig,
) -> StepMetrics {
    let cfg = SessionConfig::builder()
        .system(system)
        .model(paper_model())
        .batch_size(16)
        .strategy(PlacementStrategy::Offload)
        .symbolic(true)
        .seed(42)
        .backend(backend)
        .cache(cache)
        .build()
        .expect("valid config");
    let mut session = TrainSession::new(cfg).expect("session");
    let _ = session.profile_step().expect("profile step");
    session.run_step().expect("measured step")
}

fn run_on(backend: OffloadBackend, system: SystemConfig) -> StepMetrics {
    run_with(backend, system, TensorCacheConfig::default())
}

/// The testbed with the array's write bandwidth scaled by `f` (PCIe,
/// and with it the host-memory tier, untouched).
fn slow_array(f: f64) -> SystemConfig {
    let mut sys = SystemConfig::dac_testbed();
    sys.ssd_array.member.write_bps *= f;
    sys
}

/// A cache that must write everything it was handed: the offload set is
/// pinned (no adaptive keep-the-tail plan) and a forwarded tensor's
/// store still runs. The queue's length is then set by the links alone.
fn whole_queue() -> TensorCacheConfig {
    TensorCacheConfig {
        adaptive: false,
        cancel_forwarded_stores: false,
        ..TensorCacheConfig::default()
    }
}

/// Simulated seconds of I/O the step could not hide: the store drain at
/// backward's exit plus every unpack that waited on the device.
fn exposed(m: &StepMetrics) -> f64 {
    m.offload.store_stall_secs + m.offload.stall_secs
}

/// The testbed with every offload-path link scaled by `f` (PCIe and the
/// SSD array together, so the effective min scales too).
fn scaled_testbed(f: f64) -> SystemConfig {
    let mut sys = SystemConfig::dac_testbed();
    sys.pcie_bps *= f;
    sys.ssd_array.member.write_bps *= f;
    sys.ssd_array.member.read_bps *= f;
    sys
}

#[test]
fn step_times_are_ordered_by_link_speed() {
    // At a quarter of the array's write bandwidth the 11.9 GB queue
    // outlasts forward + backward on the array, but not on PCIe.
    let ssd = run_with(OffloadBackend::Ssd, slow_array(0.25), whole_queue());
    let dram = run_with(OffloadBackend::Dram, slow_array(0.25), whole_queue());
    // A front tier sized to hold part of one step's activations: the
    // rest spills to the (slower) array, landing the drain between the
    // two single-tier extremes.
    let tiered = run_with(
        OffloadBackend::Tiered {
            dram_bytes: 2 << 30,
        },
        slow_array(0.25),
        whole_queue(),
    );

    assert!(
        tiered.offload.spilled_bytes > 0,
        "the tiered run must actually split traffic across both links"
    );
    assert_eq!(exposed(&dram), 0.0, "PCIe alone hides the whole queue");
    for (name, m) in [("ssd", &ssd), ("tiered", &tiered)] {
        assert!(
            m.offload.store_stall_secs > 0.0,
            "{name}: what backward left of the queue must drain at its exit"
        );
        // The link reaches the step through exposed I/O and nothing
        // else: net of it, every backend ran the same compute.
        let compute = m.step_secs - exposed(m);
        assert!(
            (compute - dram.step_secs).abs() < 1e-9,
            "{name}: step {} − exposed {} is not the compute-bound {}",
            m.step_secs,
            exposed(m),
            dram.step_secs
        );
    }
    assert!(
        dram.step_secs < tiered.step_secs,
        "dram {} !< tiered {}",
        dram.step_secs,
        tiered.step_secs
    );
    assert!(
        tiered.step_secs < ssd.step_secs,
        "tiered {} !< ssd {}",
        tiered.step_secs,
        ssd.step_secs
    );

    // The stock configuration on the same slow array resolves the queue
    // in flight instead — forwarded tails are cancelled, the adaptive
    // plan keeps what the link cannot absorb — and pays in memory.
    let stock = run_on(OffloadBackend::Ssd, slow_array(0.25));
    assert_eq!(exposed(&stock), 0.0);
    assert_eq!(stock.step_secs, dram.step_secs);
    assert!(stock.act_peak_bytes > dram.act_peak_bytes);
}

#[test]
fn slowing_the_array_never_speeds_the_step() {
    for cache in [TensorCacheConfig::default(), whole_queue()] {
        let mut prev: Option<f64> = None;
        for f in [1.0, 0.5, 0.25, 0.125] {
            let m = run_with(OffloadBackend::Ssd, slow_array(f), cache.clone());
            if let Some(p) = prev {
                assert!(
                    m.step_secs >= p,
                    "slowing the array write link (×{f}) sped the step up: \
                     {} < {p}",
                    m.step_secs
                );
            }
            prev = Some(m.step_secs);
        }
    }
}

#[test]
fn a_slower_write_link_grows_the_exposed_stall() {
    // With forwarding on, the queue surfaces as the drain at backward's
    // exit; with forwarding and prefetch off, each unpack waits for its
    // own record's store to land and reloads no earlier than that
    // (`rec.avail`), so the same queue surfaces as load stall. Either
    // way a slower link exposes more of it.
    let unforwarded = TensorCacheConfig {
        forwarding: false,
        prefetch: false,
        ..whole_queue()
    };
    for (cache, through_loads) in [(whole_queue(), false), (unforwarded, true)] {
        let fast = run_with(OffloadBackend::Ssd, slow_array(0.25), cache.clone());
        let slow = run_with(OffloadBackend::Ssd, slow_array(0.125), cache);
        assert!(
            exposed(&slow) > exposed(&fast),
            "halving write bandwidth must expose more of the queue: {} !> {}",
            exposed(&slow),
            exposed(&fast)
        );
        assert!(slow.step_secs > fast.step_secs);
        // (where the queue surfaced, where it did not)
        let parts = |m: &StepMetrics| {
            let (drain, loads) = (m.offload.store_stall_secs, m.offload.stall_secs);
            if through_loads {
                (loads, drain)
            } else {
                (drain, loads)
            }
        };
        assert!(parts(&slow).0 > parts(&fast).0);
        assert_eq!(parts(&slow).1, 0.0, "the queue is exposed once, not twice");
    }
}

#[test]
fn ample_bandwidth_is_compute_bound_and_scale_invariant() {
    // 10× and 100× the testbed's links both hide every transfer inside
    // compute; the step times must agree to the bit and no store drain
    // may surface — the compute-bound behaviour.
    let x10 = run_on(OffloadBackend::Ssd, scaled_testbed(10.0));
    let x100 = run_on(OffloadBackend::Ssd, scaled_testbed(100.0));
    assert_eq!(x10.offload.store_stall_secs, 0.0);
    assert_eq!(x100.offload.store_stall_secs, 0.0);
    assert_eq!(
        x10.step_secs, x100.step_secs,
        "fully-overlapped runs must not depend on the link speed"
    );
    // With writes hidden, the backend choice stops mattering as well.
    let dram_x10 = run_on(OffloadBackend::Dram, scaled_testbed(10.0));
    assert_eq!(x10.step_secs, dram_x10.step_secs);
}

#[test]
fn tier_stall_counters_decompose_the_store_stall() {
    // Per-tier stall counters cover the step's store stall: their sum
    // bounds it from above (links drain concurrently inside one
    // barrier) and equals it for a single-tier backend.
    let ssd = run_with(OffloadBackend::Ssd, slow_array(0.25), whole_queue());
    assert!(ssd.offload.store_stall_secs > 0.0);
    let per_tier: f64 = ssd.offload.tiers.iter().map(|t| t.stall_secs).sum();
    assert!((per_tier - ssd.offload.store_stall_secs).abs() < 1e-9);

    let tiered = run_with(
        OffloadBackend::Tiered {
            dram_bytes: 2 << 30,
        },
        slow_array(0.25),
        whole_queue(),
    );
    assert!(tiered.offload.store_stall_secs > 0.0);
    let per_tier: f64 = tiered.offload.tiers.iter().map(|t| t.stall_secs).sum();
    assert!(per_tier >= tiered.offload.store_stall_secs - 1e-9);
    for t in &tiered.offload.tiers {
        assert!(
            t.bytes_written == 0 || t.write_busy_secs > 0.0,
            "tier {} wrote bytes but reports no link busy time",
            t.name
        );
    }
}
