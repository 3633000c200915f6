//! A second thread may read a live cache.
//!
//! `TensorCache` and `IoEngine` each guard their bookkeeping with one
//! lock, taken once per public call (DESIGN.md §7, "One lock per
//! object"). The contract that buys: a monitor polling every read-only
//! accessor while the training thread runs can neither deadlock the
//! step nor change its numerics. The run crosses every layer the lock
//! order names — coalesced segments, two tier links behind the shared
//! write bus, and one injected store fault — and executes on a
//! watchdog, so a deadlock fails the test instead of hanging it.

use ssdtrain::{RecoveryPolicy, TensorCache, TensorCacheConfig};
use ssdtrain_models::ModelConfig;
use ssdtrain_simhw::{FaultKind, FaultPlan, FaultTrigger};
use ssdtrain_train::{OffloadBackend, SessionConfig, TrainSession};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

const STEPS: usize = 3;

fn session() -> TrainSession {
    let mut cache = TensorCacheConfig::offload_everything();
    cache.coalesce_segment_bytes = 8 << 10;
    cache.prefetch_group_modules = 2;
    let cfg = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(cache)
        // A DRAM front tier too small for the step, so both links of the
        // bus carry stores.
        .backend(OffloadBackend::Tiered {
            dram_bytes: 16 << 10,
        })
        .recovery(RecoveryPolicy::KeepResident)
        .fault(FaultPlan::new(7).with_fault(FaultTrigger::NthOp { nth: 0 }, FaultKind::WriteError))
        .seed(23)
        .build()
        .expect("valid config");
    TrainSession::new(cfg).expect("session construction")
}

/// One pass over every read-only accessor a dashboard would poll.
fn poll(cache: &TensorCache) -> u64 {
    let stats = cache.stats();
    let plan = cache.plan();
    let stack = cache.tiers();
    let described: usize = stack
        .tier_ids()
        .into_iter()
        .map(|t| stack.name(t).len() + stack.link(t))
        .sum();
    let written = cache.io().bytes_written();
    let arena = cache.arena().stats();
    // Fold the snapshots into one value so none of the calls is dead.
    stats.store_jobs
        + stats.coalesce_segments
        + plan.keep_paths.len() as u64
        + stats.tiers.iter().map(|t| t.stores + t.loads).sum::<u64>()
        + described as u64
        + written
        + arena.acquired_bytes
}

/// Trains `STEPS` steps and returns the loss bits; with `monitored`, a
/// second thread polls the cache for the whole run.
fn run(monitored: bool) -> Vec<u32> {
    let mut s = session();
    let cache = s.cache().expect("an offloading session").clone();
    let (stop, polls) = (AtomicBool::new(false), AtomicU64::new(0));
    let started = Barrier::new(2);
    std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            started.wait();
            while monitored && !stop.load(Ordering::SeqCst) {
                std::hint::black_box(poll(&cache));
                polls.fetch_add(1, Ordering::SeqCst);
            }
        });
        // The monitor is in its loop before the first step begins, and
        // completes at least one more pass after every step — so it has
        // seen the cache mid-run, not just before and after.
        started.wait();
        let mut bits = Vec::with_capacity(STEPS);
        for _ in 0..STEPS {
            let step = s.run_step().expect("KeepResident absorbs the store fault");
            bits.push(step.loss.to_bits());
            let seen = polls.load(Ordering::SeqCst);
            while monitored && polls.load(Ordering::SeqCst) == seen {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::SeqCst);
        monitor.join().expect("the monitor thread panicked");
        // The run was the one described: the fault fired, segments
        // coalesced, and both tiers behind the bus took writes.
        let stats = cache.stats();
        assert_eq!(s.fault_log().map(|l| l.write_faults), Some(1));
        assert!(stats.coalesce_segments > 0, "{stats:?}");
        assert!(stats.tiers.iter().all(|t| t.bytes_written > 0), "{stats:?}");
        bits
    })
}

/// Runs `f` on its own thread and fails, rather than hangs, if it has
/// not finished after two minutes (a deadlock) or died (a panic).
fn finishes<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(std::time::Duration::from_secs(120))
        .unwrap_or_else(|e| panic!("the run did not finish: {e}"))
}

#[test]
fn a_monitor_thread_neither_deadlocks_nor_perturbs_training() {
    let alone = finishes(|| run(false));
    let watched = finishes(|| run(true));
    assert_eq!(alone.len(), STEPS);
    assert_eq!(alone, watched, "loss bits moved under monitoring");
}
