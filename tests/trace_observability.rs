//! The observability layer's two load-bearing guarantees:
//!
//! 1. **Byte stability.** The Chrome-trace JSON for a fixed-seed run is
//!    a pure function of the configuration — same config, same bytes.
//!    A golden file pins the exporter's format and the event stream's
//!    determinism at once; regenerate it after intentional changes with
//!    `UPDATE_GOLDEN=1 cargo test --test trace_observability`.
//!
//! 2. **Accounting.** [`explain`] splits each step of a trace into
//!    terms that sum to the step, and each term equals the counter it
//!    mirrors: the time terms [`StepMetrics`], the byte terms the
//!    cache's own [`OffloadStats`] — including under injected faults,
//!    where failed stores are re-routed (fallback) or kept resident and
//!    must leave the primary account through the same identities the
//!    trace records.

use ssdtrain::{
    chrome_trace_json, explain, ArgValue, CpuTarget, IoEngine, OffloadClass, OffloadStats,
    RecoveryPolicy, StageHint, StateSlot, StepBytes, StepTable, TensorCache, TensorCacheConfig,
    Tier, TierLink, TierStack, TraceCategory, TraceEvent, TraceSink,
};
use ssdtrain_autograd::{ModuleHooks, Packed, Phase, SavedTensorHooks, ScopeInfo};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_simhw::{
    FaultKind, FaultPlan, FaultTrigger, GpuMemory, SimClock, SimTime, SystemConfig,
};
use ssdtrain_tensor::{Device, Tensor};
use ssdtrain_train::{OffloadBackend, PlacementStrategy, SessionConfig, StepMetrics, TrainSession};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

const STEPS: usize = 2;

/// The fixed-seed configuration both the golden file and the accounting
/// tests run: a numeric tiny-GPT step offloading everything, so every
/// lane of the trace carries events.
fn traced_session(
    sink: TraceSink,
    backend: OffloadBackend,
    recovery: RecoveryPolicy,
    fault: Option<FaultPlan>,
) -> TrainSession {
    let mut builder = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(TensorCacheConfig::offload_everything())
        .recovery(recovery)
        .seed(7)
        .backend(backend)
        .trace(sink);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    TrainSession::new(builder.build().expect("valid config")).expect("session")
}

/// Runs `STEPS` steps and returns their metrics.
fn run(session: &mut TrainSession) -> Vec<StepMetrics> {
    (0..STEPS)
        .map(|_| session.run_step().expect("step"))
        .collect()
}

/// Asserts that [`explain`] splits each of the trace's last
/// `per_step.len()` steps into terms that sum to the step within 1e-9
/// and equal its counters: the time terms the step's metrics and the
/// cache's stall counters, the bytes field by field its
/// [`OffloadStats`]. Returns those steps' tables.
fn assert_explained(events: &[TraceEvent], per_step: &[StepMetrics]) -> Vec<StepTable> {
    let tables = explain(events);
    let measured = tables[tables.len() - per_step.len()..].to_vec();
    for (t, m) in measured.iter().zip(per_step) {
        let step = t.step;
        assert_eq!(t.bytes, m.offload.step_bytes(), "step {step}: bytes");
        let close = |what: &str, table: f64, counter: f64| {
            assert!(
                (table - counter).abs() < 1e-9,
                "step {step}: {what} {table} vs {counter}"
            );
        };
        close("terms vs step", t.terms_secs(), t.step_secs);
        close("step_secs", t.step_secs, m.step_secs);
        close("stall_secs", t.stall_secs(), m.offload.stall_secs);
        close(
            "store_stall_secs",
            t.store_drain_secs,
            m.offload.store_stall_secs,
        );
        close("opt_secs", t.opt_secs, m.opt_secs);
        close("opt_exposed_secs", t.opt_exposed_secs, m.opt_exposed_secs);
    }
    measured
}

#[test]
fn golden_chrome_trace_is_byte_stable() {
    // CPU target: no spill files, so the run touches nothing outside the
    // simulator — the trace depends on the configuration alone.
    let sink = TraceSink::enabled();
    let mut s = traced_session(
        sink.clone(),
        OffloadBackend::Dram,
        RecoveryPolicy::KeepResident,
        None,
    );
    let per_step = run(&mut s);
    let events = sink.events();
    assert_explained(&events, &per_step);
    let json = chrome_trace_json(&events);

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quickstart_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &json).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).expect(
        "golden file missing; regenerate with UPDATE_GOLDEN=1 cargo test --test trace_observability",
    );
    assert_eq!(
        json, want,
        "chrome trace drifted from tests/golden/quickstart_trace.json; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn identical_runs_emit_identical_traces() {
    // The same determinism as the golden test, but self-contained (and
    // on the SSD target, where real spill files are in the loop).
    let trace_of = || {
        let sink = TraceSink::enabled();
        let mut s = traced_session(
            sink.clone(),
            OffloadBackend::Ssd,
            RecoveryPolicy::KeepResident,
            None,
        );
        let _ = run(&mut s);
        chrome_trace_json(&sink.events())
    };
    assert_eq!(trace_of(), trace_of());
}

#[test]
fn trace_byte_totals_match_offload_stats() {
    let sink = TraceSink::enabled();
    let mut s = traced_session(
        sink.clone(),
        OffloadBackend::Ssd,
        RecoveryPolicy::KeepResident,
        None,
    );
    let per_step = run(&mut s);
    assert!(per_step.iter().all(|m| m.offload.offloaded_bytes > 0));
    assert_explained(&sink.events(), &per_step);
}

#[test]
fn trace_accounting_survives_injected_write_faults() {
    // Keep-resident: failed stores stay on the GPU and the trace's
    // recovery lane must carry exactly the bytes the stats report.
    let plan = FaultPlan::new(42).with_recurring_fault(
        FaultTrigger::ByteThreshold { bytes: 16 << 10 },
        FaultKind::WriteError,
    );
    let sink = TraceSink::enabled();
    let mut s = traced_session(
        sink.clone(),
        OffloadBackend::Ssd,
        RecoveryPolicy::KeepResident,
        Some(plan),
    );
    let per_step = run(&mut s);
    assert!(
        per_step.iter().any(|m| m.offload.kept_resident_bytes > 0),
        "the fault plan must actually fire"
    );
    let events = sink.events();
    assert_explained(&events, &per_step);
    let cats: BTreeSet<&str> = events.iter().map(|e| e.cat.as_str()).collect();
    assert!(cats.contains(TraceCategory::Fault.as_str()));
    assert!(cats.contains(TraceCategory::Recovery.as_str()));
}

#[test]
fn trace_accounting_survives_fallback_rerouting() {
    // Fallback-target: failed stores re-route to the host pool; the
    // byte identities still close because the fallback lane absorbs
    // exactly what leaves the primary account.
    let plan = FaultPlan::new(42).with_recurring_fault(
        FaultTrigger::ByteThreshold { bytes: 16 << 10 },
        FaultKind::WriteError,
    );
    let sink = TraceSink::enabled();
    let mut s = traced_session(
        sink.clone(),
        OffloadBackend::Ssd,
        RecoveryPolicy::FallbackTarget,
        Some(plan),
    );
    let per_step = run(&mut s);
    assert!(
        per_step.iter().any(|m| m.offload.fallback_bytes > 0),
        "the fault plan must actually fire"
    );
    assert_explained(&sink.events(), &per_step);
}

#[test]
fn gradient_lane_closes_its_own_identity_with_stores_inside_backward() {
    // Gradients now leave during backward, interleaved with activation
    // reloads; their lane of the trace — the events tagged
    // `class=gradient` — must still close on its own counters, healthy
    // and with stores failing mid-backward.
    let plan = || {
        FaultPlan::new(42).with_recurring_fault(
            FaultTrigger::ByteThreshold { bytes: 16 << 10 },
            FaultKind::WriteError,
        )
    };
    let mut saw_instant = false;
    for fault in [None, Some(plan())] {
        let faulted = fault.is_some();
        let sink = TraceSink::enabled();
        let mut builder = SessionConfig::builder()
            .model(ModelConfig::tiny_gpt())
            .batch_size(2)
            .cache(TensorCacheConfig::offload_everything())
            .offload(OffloadClass::Gradient, true)
            .recovery(RecoveryPolicy::KeepResident)
            .seed(7)
            .backend(OffloadBackend::Ssd)
            .trace(sink.clone());
        if let Some(plan) = fault {
            builder = builder.fault(plan);
        }
        let mut s = TrainSession::new(builder.build().expect("valid config")).expect("session");
        let per_step = run(&mut s);
        let events = sink.events();
        assert_explained(&events, &per_step);
        let gradient = OffloadClass::Gradient.label();
        let tagged = |e: &&TraceEvent| {
            let class = e.args.iter().find(|(k, _)| *k == "class");
            matches!(class, Some((_, ArgValue::Str(c))) if c == gradient)
        };
        for (i, m) in per_step.iter().enumerate() {
            let step = (i + 1) as u32;
            let in_step = || events.iter().filter(move |e| e.step == step);
            let lane = StepBytes::of(in_step().filter(tagged));
            let counters = m.offload.class(OffloadClass::Gradient);
            let counters = counters.expect("gradient lane");
            assert_eq!(
                lane.offloaded, counters.offloaded_bytes,
                "faulted={faulted} step {step}: gradient store bytes"
            );
            if faulted {
                assert!(lane.kept_resident > 0, "step {step}: no gradient fault");
            }
            // Interleaved: gradient stores and (on the healthy device,
            // where activations did leave) activation reloads both fall
            // inside the backward stage.
            let bwd = in_step()
                .find(|e| e.name == "stage.backward")
                .expect("backward span");
            let inside = |e: &&TraceEvent| e.ts >= bwd.ts && e.ts < bwd.end();
            let grad_stores = in_step()
                .filter(|e| e.name == "store.enqueue")
                .filter(tagged);
            assert!(grad_stores.filter(inside).count() > 0, "step {step}");
            let loads = in_step().filter(|e| e.name == "load");
            assert!(faulted || loads.filter(inside).count() > 0, "step {step}");
            // The end-of-step class instant mirrors the same counters (a
            // lane whose every store failed moved nothing and has none).
            let name = format!("class.io.{gradient}");
            let Some(io) = in_step().find(|e| e.name == name) else {
                assert_eq!((counters.offloaded_bytes, counters.reloaded_bytes), (0, 0));
                continue;
            };
            assert_eq!(
                io.arg_u64("offloaded_bytes"),
                Some(counters.offloaded_bytes)
            );
            assert_eq!(io.arg_u64("reloaded_bytes"), Some(counters.reloaded_bytes));
            assert_eq!(io.arg_u64("stores"), Some(counters.stores));
            assert_eq!(io.arg_u64("loads"), Some(counters.loads));
            saw_instant = true;
        }
    }
    assert!(saw_instant, "the healthy run must emit class.io.gradient");
}

#[test]
fn momentum_read_ahead_lands_before_its_update_and_leaves_no_tail() {
    // `sym_deep_tiered`'s configuration on symbolic BERT H512 L24,
    // profiled first. Each `state.read_ahead` instant precedes its read's
    // `load` span; the update of its parameter writes the fresh momentum
    // back (a state-class `store.enqueue` of the same size) — or, from
    // the step its write-back is found late, keeps it on the GPU (a
    // `state.keep` of the same size) — and may not run before that read
    // landed. Parameters of one size are interchangeable here, so the
    // check is a matching: each read ahead, by landing time, claims the
    // first unclaimed update of its size at or after it. The keeps'
    // bytes are the optimizer-state lane's `kept_bytes`.
    let sink = TraceSink::enabled();
    let cfg = SessionConfig::builder()
        .model(ModelConfig::paper_scale(Arch::Bert, 512, 24).with_tp(2))
        .batch_size(8)
        .symbolic(true)
        .seed(7)
        .backend(OffloadBackend::Tiered {
            dram_bytes: 128 << 20,
        })
        .coalesce_segment(8 << 20)
        .prefetch_group(2)
        .prefetch_depth(2)
        .offload(OffloadClass::Gradient, true)
        .offload(OffloadClass::OptimizerState, true)
        .overlap_optimizer(true)
        .momentum(0.9)
        .trace(sink.clone())
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    s.profile_step().expect("profile step");
    let mut stats = vec![s.cache().expect("cache").stats()];
    for _ in 0..4 {
        stats.push(s.run_step().expect("step").offload);
    }
    let events = sink.events();
    assert!(
        events.iter().all(|e| e.name != "opt.tail"),
        "a state read outlived backward"
    );
    let state = OffloadClass::OptimizerState.label();
    let is_state = |e: &TraceEvent| {
        let class = e.args.iter().find(|(k, _)| *k == "class");
        matches!(class, Some((_, ArgValue::Str(c))) if c == state)
    };
    let (mut read_ahead, mut kept) = (0, 0);
    for (i, stats) in stats.iter().enumerate() {
        let step = (i + 1) as u32;
        let in_step: Vec<&TraceEvent> = events.iter().filter(|e| e.step == step).collect();
        let bytes = StepBytes::of(in_step.iter().copied());
        assert_eq!(bytes, stats.step_bytes(), "step {step}: bytes");
        // (size, landing) of each read ahead; (size, time) of each update.
        let (mut reads, mut updates) = (Vec::new(), Vec::new());
        let mut ahead = false;
        for e in &in_step {
            match e.name.as_str() {
                "state.read_ahead" => ahead = true,
                "load" if ahead => {
                    reads.push((e.bytes(), e.end()));
                    ahead = false;
                }
                "store.enqueue" | "state.keep" if is_state(e) => updates.push((e.bytes(), e.ts)),
                _ => {}
            }
        }
        assert!(!ahead, "step {step}: a read ahead without its load");
        let keeps = in_step.iter().filter(|e| e.name == "state.keep");
        let keep_bytes: u64 = keeps.filter_map(|e| e.bytes()).sum();
        let lane = stats.class(OffloadClass::OptimizerState);
        let lane_kept = lane.map_or(0, |c| c.kept_bytes);
        assert_eq!(keep_bytes, lane_kept, "step {step}: kept bytes");
        kept += keep_bytes;
        read_ahead += reads.len();
        reads.sort_by(|a, b| a.1.as_secs().total_cmp(&b.1.as_secs()));
        for (bytes, landed) in reads {
            let claim = updates.iter().position(|u| u.0 == bytes && u.1 >= landed);
            let claim = claim.unwrap_or_else(|| {
                panic!("step {step}: a {bytes:?}-byte read ahead landing at {landed:?} has no update after it")
            });
            updates.remove(claim);
        }
    }
    assert!(read_ahead > 0, "nothing was read ahead");
    assert!(kept > 0, "no momentum was kept");
}

/// Coalesced-path variant of the fixed-seed session: same model and
/// seed, but stores ride 4 KiB segments and backward consumes groups of
/// two modules under the group look-ahead.
fn coalesced_session(
    sink: TraceSink,
    recovery: RecoveryPolicy,
    fault: Option<FaultPlan>,
) -> TrainSession {
    let mut cache = TensorCacheConfig::offload_everything();
    // Small enough that forward's early segments land, and commit as
    // segment writes, before backward is announced; one that seals at
    // forward's exit is forwarded whole by the group look-ahead.
    cache.coalesce_segment_bytes = 4 << 10;
    cache.prefetch_group_modules = 2;
    let mut builder = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(cache)
        .recovery(recovery)
        .seed(7)
        .backend(OffloadBackend::Ssd)
        .trace(sink);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    TrainSession::new(builder.build().expect("valid config")).expect("session")
}

#[test]
fn trace_accounting_holds_on_the_coalesced_path() {
    // Segments batch many tensors into one store job, but the per-record
    // byte identities must close exactly as on the per-tensor path.
    let sink = TraceSink::enabled();
    let mut s = coalesced_session(sink.clone(), RecoveryPolicy::KeepResident, None);
    let per_step = run(&mut s);
    assert!(per_step.iter().all(|m| m.offload.offloaded_bytes > 0));
    assert!(
        per_step.iter().any(|m| m.offload.coalesce_segments > 0),
        "the coalescer must actually seal segments"
    );
    assert!(
        per_step.iter().any(|m| m.offload.prefetch_groups > 0),
        "group prefetch must actually run"
    );
    assert_explained(&sink.events(), &per_step);
    let cats: BTreeSet<&str> = sink.events().iter().map(|e| e.cat.as_str()).collect();
    assert!(cats.contains(TraceCategory::Coalesce.as_str()));
    assert!(cats.contains(TraceCategory::Arena.as_str()));
}

#[test]
fn trace_accounting_survives_faults_on_the_coalesced_path() {
    // A failed segment write degrades the whole segment per the policy;
    // the recovery lane must absorb exactly the bytes that leave the
    // primary account — same identity, segment granularity.
    for recovery in [RecoveryPolicy::KeepResident, RecoveryPolicy::FallbackTarget] {
        let plan = FaultPlan::new(42).with_recurring_fault(
            FaultTrigger::ByteThreshold { bytes: 16 << 10 },
            FaultKind::WriteError,
        );
        let sink = TraceSink::enabled();
        let mut s = coalesced_session(sink.clone(), recovery, Some(plan));
        let per_step = run(&mut s);
        assert!(
            per_step
                .iter()
                .map(|m| &m.offload)
                .any(OffloadStats::degraded),
            "{recovery:?}: the fault plan must actually fire"
        );
        assert_explained(&sink.events(), &per_step);
    }
}

#[test]
fn tier_drain_spans_match_the_stall_counters() {
    // Per step, the store drain `explain` reads from the
    // `tier.drain.<link>` spans is the stall the stats report
    // (`store_stall_secs`, the clock's advance at the barriers). Here
    // only backward's exit waits, and the links it waits for drain
    // side by side, so that is the longest link's stall counter; on the
    // DRAM-then-SSD stack both links are still writing there. The
    // `tier.io.<name>` instants mirror the same counters byte for byte.
    //
    // The testbed's array hides the tiny model's traffic entirely, and
    // on a slow one backward forwards the queue's tail and cancels its
    // stores. So slow the write path *and* keep forwarded stores
    // running: what backward leaves of the queue drains at its exit.
    let mut sys = SystemConfig::dac_testbed();
    sys.pcie_bps = 1e6;
    sys.ssd_array.member.write_bps = 1e6;
    // Each backend with the number of write links it stores on.
    let backends = [
        (OffloadBackend::Ssd, 1),
        (
            OffloadBackend::Tiered {
                dram_bytes: 16 << 10,
            },
            2,
        ),
    ];
    for (backend, links) in backends {
        let sink = TraceSink::enabled();
        let cfg = SessionConfig::builder()
            .model(ModelConfig::tiny_gpt())
            .batch_size(2)
            .cache(TensorCacheConfig {
                cancel_forwarded_stores: false,
                ..TensorCacheConfig::offload_everything()
            })
            .system(sys.clone())
            .seed(7)
            .backend(backend)
            .trace(sink.clone())
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        let per_step = run(&mut s);
        let events = sink.events();
        let tables = assert_explained(&events, &per_step);

        let mut draining = 0;
        for (table, m) in tables.iter().zip(&per_step) {
            let (step, stats) = (table.step, &m.offload);
            let longest = stats.tiers.iter().map(|t| t.stall_secs).fold(0.0, f64::max);
            assert!(
                (table.store_drain_secs - longest).abs() < 1e-9,
                "{backend:?} step {step}: store drain {} vs longest stall counter {longest}",
                table.store_drain_secs
            );
            draining = draining.max(stats.tiers.iter().filter(|t| t.stall_secs > 0.0).count());

            for counters in &stats.tiers {
                let name = format!("tier.io.{}", counters.name);
                if counters.bytes_written == 0 && counters.bytes_read == 0 {
                    continue;
                }
                let ev = events
                    .iter()
                    .find(|e| e.step == step && e.name == name)
                    .unwrap_or_else(|| panic!("step {step}: missing {name} instant"));
                let arg_f64 = |key: &str| {
                    ev.arg_f64(key)
                        .unwrap_or_else(|| panic!("{name}: no {key}"))
                };
                assert_eq!(ev.arg_u64("bytes_written"), Some(counters.bytes_written));
                assert_eq!(ev.arg_u64("bytes_read"), Some(counters.bytes_read));
                assert!((arg_f64("write_busy_secs") - counters.write_busy_secs).abs() < 1e-12);
                assert!((arg_f64("read_busy_secs") - counters.read_busy_secs).abs() < 1e-12);
                assert!((arg_f64("stall_secs") - counters.stall_secs).abs() < 1e-12);
            }
        }
        assert_eq!(
            draining, links,
            "{backend:?}: every slowed write link must expose a drain"
        );
    }
}

/// Gradients and optimizer state offloaded on the stock testbed, the
/// update run inline and inside backward: every term the optimizer
/// and the store barriers add shows in the table and equals its
/// counter, and what is left is the compute of the same step with
/// everything kept and nothing offloaded.
#[test]
fn the_step_table_splits_out_the_optimizer_and_the_store_drain() {
    let builder = |strategy| {
        SessionConfig::builder()
            .model(ModelConfig::tiny_gpt())
            .batch_size(2)
            .strategy(strategy)
            .momentum(0.9)
            .seed(7)
    };
    let keep = builder(PlacementStrategy::Keep)
        .build()
        .expect("valid config");
    let keep = TrainSession::new(keep).expect("session").run_step();
    let compute = keep.expect("step").step_secs;
    for overlap in [false, true] {
        let sink = TraceSink::enabled();
        let cfg = builder(PlacementStrategy::Offload)
            .cache(TensorCacheConfig::offload_everything())
            .offload(OffloadClass::Gradient, true)
            .offload(OffloadClass::OptimizerState, true)
            .overlap_optimizer(overlap)
            .backend(OffloadBackend::Ssd)
            .trace(sink.clone())
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        let per_step: Vec<StepMetrics> = (0..3).map(|_| s.run_step().expect("step")).collect();
        let tables = assert_explained(&sink.events(), &per_step);
        for t in &tables {
            assert!(t.store_drain_secs > 0.0, "overlap={overlap}: {t:?}");
            assert!(
                (t.compute_secs - compute).abs() < 1e-9,
                "overlap={overlap}: {t:?}"
            );
        }
        // Inline, every stage job waits for its state; in backward, the
        // last parameter's momentum lands after backward from the
        // second step on, when there is momentum to read back.
        let opt = |t: &StepTable| {
            if overlap {
                t.opt_exposed_secs
            } else {
                t.opt_secs
            }
        };
        assert!(
            tables[1..].iter().all(|t| opt(t) > 0.0),
            "overlap={overlap}: {tables:?}"
        );
    }
}

/// The 12-layer twin of `sym_deep_tiered`: the first step after
/// profiling exposes one term, the store drain of the momentum written
/// back late, and every later step none; their compute is the step of
/// the same model with everything kept and nothing offloaded.
#[test]
fn the_deep_tiered_twin_exposes_only_its_first_store_drain() {
    let mut keep = ssdtrain_bench::deep_tiered_config(12);
    keep.strategy = PlacementStrategy::Keep;
    keep.offload = Default::default();
    keep.overlap_optimizer = false;
    let keep = TrainSession::new(keep).expect("session").run_step();
    let compute = keep.expect("step").step_secs;

    let sink = TraceSink::enabled();
    let mut cfg = ssdtrain_bench::deep_tiered_config(12);
    cfg.trace = sink.clone();
    let mut s = TrainSession::new(cfg).expect("session");
    s.profile_step().expect("profile step");
    let per_step: Vec<StepMetrics> = (0..3).map(|_| s.run_step().expect("step")).collect();
    let tables = assert_explained(&sink.events(), &per_step);
    for (i, t) in tables.iter().enumerate() {
        assert!(
            (t.compute_secs - compute).abs() < 1e-9,
            "{t:?} vs {compute}"
        );
        let exposed = t.step_secs - t.compute_secs;
        let drain = if i == 0 { 0.008250496 } else { 0.0 };
        assert!((t.store_drain_secs - drain).abs() < 1e-9, "{t:?}");
        assert!((exposed - t.store_drain_secs).abs() < 1e-9, "{t:?}");
    }
}

#[test]
fn traced_run_covers_the_documented_categories() {
    let plan = FaultPlan::new(42).with_fault(FaultTrigger::NthOp { nth: 6 }, FaultKind::WriteError);
    let sink = TraceSink::enabled();
    let mut s = traced_session(
        sink.clone(),
        OffloadBackend::Ssd,
        RecoveryPolicy::KeepResident,
        Some(plan),
    );
    let _ = run(&mut s);
    let cats: BTreeSet<&str> = sink.events().iter().map(|e| e.cat.as_str()).collect();
    for required in [
        TraceCategory::Session,
        TraceCategory::Stage,
        TraceCategory::Store,
        TraceCategory::Load,
        TraceCategory::Prefetch,
        TraceCategory::Dedup,
        TraceCategory::Fault,
        TraceCategory::Recovery,
        TraceCategory::Alloc,
        TraceCategory::Arena,
    ] {
        assert!(
            cats.contains(required.as_str()),
            "missing {required:?} in {cats:?}"
        );
    }
}

#[test]
fn disabled_sink_records_nothing() {
    // The default session carries a disabled sink: the step must not
    // accumulate events anywhere (the "free when off" overhead bound).
    let mut s = traced_session(
        TraceSink::disabled(),
        OffloadBackend::Ssd,
        RecoveryPolicy::KeepResident,
        None,
    );
    let _ = run(&mut s);
    assert!(s.trace().is_empty());
    assert!(!s.trace().is_enabled());
    // Stage exit is part of the bound: the fixed stages' labels are
    // borrowed, never formatted, and a scope on the disabled sink leaves
    // nothing behind.
    for stage in [
        StageHint::Forward,
        StageHint::Backward,
        StageHint::Communication,
        StageHint::Optimizer,
    ] {
        assert!(matches!(stage.trace_label(), Cow::Borrowed(_)), "{stage:?}");
        drop(s.cache().expect("offload session").stage_scope(stage));
    }
    assert_eq!(StageHint::MicroBatchLoad(3).trace_label(), "stage.load_mb3");
    assert!(s.trace().is_empty());
}

/// A member forwarded after its segment sealed still rides the job: the
/// write bus carries it and `offloaded_bytes` counts it, like
/// `IoEngine::bytes_written` (a step's `ssd_host_writes`), but the
/// commit skips it, so no tier records it. DESIGN §6 names the gap; on
/// a step with exactly one rider it is that member's bytes.
#[test]
fn a_rider_is_offloaded_but_no_tier_writes_it() {
    const MIB: u64 = 1 << 20;
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    // 1 MiB in 10 ms each way; two 1 MiB saves fill one 2 MiB segment.
    let io = IoEngine::new(clock.clone(), MIB as f64 * 100.0, MIB as f64 * 100.0);
    let config = TensorCacheConfig {
        coalesce_segment_bytes: 2 * MIB,
        prefetch_depth: 0,
        ..TensorCacheConfig::offload_everything()
    };
    let cache = TensorCache::with_tiers(
        config,
        Arc::new(TierStack::single(Arc::new(CpuTarget::new(1 << 40)))),
        io,
        mem,
    );
    let sink = TraceSink::enabled();
    cache.set_trace(sink.clone());
    sink.next_step();
    cache.begin_step();
    cache.phase_changed(Phase::Forward);
    let scope = ScopeInfo {
        path: "m".into(),
        seq: 1,
        micro_batch: 0,
    };
    cache.forward_pre(&scope);
    let tensor = || Tensor::zeros([MIB as usize / 4], &dev);
    let (landed, rider) = (cache.pack(&tensor()), cache.pack(&tensor()));
    cache.forward_post(&scope);
    cache.phase_changed(Phase::Backward);
    // The segment's job runs 0–20 ms. At 5 ms backward takes the second
    // member back from memory — forwarded, not cancelled, as the job
    // carries its sibling; at 25 ms the first has landed and reloads.
    clock.advance_by(5e-3);
    cache.backward_pre(&scope);
    drop(cache.unpack(&rider));
    clock.advance_by(20e-3);
    drop(cache.unpack(&landed));
    cache.backward_post(&scope);
    cache.drain_stores();
    cache.flush();

    let stats = cache.stats();
    assert_eq!((stats.forwarded, stats.cancelled_stores), (1, 0));
    assert_eq!(stats.offloaded_bytes, 2 * MIB);
    assert_eq!(cache.io().bytes_written(), stats.offloaded_bytes);
    let written: u64 = stats.tiers.iter().map(|t| t.bytes_written).sum();
    assert_eq!(stats.offloaded_bytes - written, MIB, "the gap is the rider");
    let table = &explain(&sink.events())[0];
    assert_eq!(table.bytes, stats.step_bytes());
}

/// Bytes of one layer's momentum slot in [`replay_step`]: no other
/// transfer has this size, so its `load` spans are told apart by it.
const MOMENTUM_BYTES: u64 = 384 << 10;

/// One step of the replay protocol on a DRAM-then-SSD stack: each layer
/// saves a 2 MiB and a 512 KiB activation and owns a momentum slot;
/// backward prefetches the layer's momentum (queued behind the group
/// reloads) and loads the previous layer's gradient slot as a demand
/// read, which overtakes both. Returns the sink, the cache and, per
/// layer in backward order, the momentum slot and where its load was
/// first reported to land.
fn replay_step() -> (TraceSink, Arc<TensorCache>, Vec<(StateSlot, SimTime)>) {
    const LAYERS: usize = 8;
    let sys = SystemConfig::dac_testbed();
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), sys.gpu.memory_bytes));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    let links = vec![
        TierLink::new("dram", sys.host_offload_bps(), sys.host_offload_bps()),
        TierLink::new("ssd", sys.offload_write_bps(), sys.offload_read_bps()),
    ];
    let io = IoEngine::tiered_with_bus(clock.clone(), links, sys.pcie_bps);
    let tiers = TierStack::new(vec![
        Tier::new("dram", Arc::new(CpuTarget::new(1 << 40)), 0).with_capacity(8 << 20),
        Tier::new("ssd", Arc::new(CpuTarget::new(1 << 40)), 1),
    ]);
    let config = TensorCacheConfig {
        coalesce_segment_bytes: 4 << 20,
        prefetch_group_modules: 2,
        prefetch_depth: 2,
        ..TensorCacheConfig::offload_everything()
    };
    let cache = TensorCache::with_tiers(config, Arc::new(tiers), io, mem);
    let sink = TraceSink::enabled();
    cache.set_trace(sink.clone());
    sink.next_step();

    let tensor = |bytes: u64| Tensor::zeros([bytes as usize / 4], &dev);
    let momenta: Vec<Tensor> = (0..LAYERS).map(|_| tensor(MOMENTUM_BYTES)).collect();
    let slots: Vec<StateSlot> = momenta
        .iter()
        .map(|m| cache.offload_state(m, OffloadClass::OptimizerState))
        .collect::<Option<_>>()
        .expect("every momentum slot offloads");
    cache.begin_step();
    cache.phase_changed(Phase::Forward);
    let mut layers = Vec::new();
    for l in 0..LAYERS {
        let scope = ScopeInfo {
            path: format!("layer{l}"),
            seq: l as u64 + 1,
            micro_batch: 0,
        };
        cache.forward_pre(&scope);
        let saved: Vec<Packed> = [2 << 20, 512 << 10]
            .into_iter()
            .map(|b| cache.pack(&tensor(b)))
            .collect();
        clock.advance_by(250e-6);
        cache.forward_post(&scope);
        layers.push((scope, saved));
    }
    cache.prefetch_last_module();
    cache.phase_changed(Phase::Backward);

    let mut reported = Vec::new();
    let mut pending: Option<(StateSlot, Tensor)> = None;
    for (l, (scope, saved)) in layers.iter().enumerate().rev() {
        cache.backward_pre(scope);
        let ready = cache.prefetch_state(slots[l]).expect("momentum slot");
        reported.push((slots[l], ready));
        for p in saved.iter().rev() {
            drop(cache.unpack(p));
        }
        let grad = tensor(512 << 10);
        let slot = cache.offload_state(&grad, OffloadClass::Gradient);
        if let Some((prev, _grad)) = pending.take() {
            let at = cache.load_state(prev).expect("gradient slot");
            clock.advance_to(at);
            cache.release_state(prev);
        }
        pending = slot.map(|s| (s, grad));
        clock.advance_by(500e-6);
        cache.backward_post(scope);
    }
    if let Some((prev, _grad)) = pending {
        clock.advance_to(cache.load_state(prev).expect("gradient slot"));
        cache.release_state(prev);
    }
    cache.wait_io();
    cache.drain_stores();
    cache.flush();
    (sink, cache, reported)
}

#[test]
fn reads_share_one_bus_and_a_pushed_back_prefetch_is_traced_where_it_lands() {
    let (sink, cache, reported) = replay_step();
    let events = sink.events();
    let loads: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "load").collect();
    // One read bus: no two `load` spans overlap, and together they are
    // the busy time the tiers report.
    let mut spans: Vec<(f64, f64)> = loads
        .iter()
        .map(|e| (e.ts.as_secs(), e.end().as_secs()))
        .collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    for w in spans.windows(2) {
        assert!(w[0].1 <= w[1].0, "reads overlap: {w:?}");
    }
    let traced: f64 = spans.iter().map(|(s, e)| e - s).sum();
    let stats = cache.stats();
    let busy: f64 = stats.tiers.iter().map(|t| t.read_busy_secs).sum();
    assert!((traced - busy).abs() <= busy * 1e-12, "{traced} vs {busy}");
    assert!(
        stats.tiers.iter().all(|t| t.bytes_read > 0),
        "both tiers read"
    );

    // Each momentum prefetch, in issue order, ends its span where its
    // record now says it lands: later than first reported whenever a
    // demand read overtook it.
    let momentum = loads.iter().filter(|e| e.bytes() == Some(MOMENTUM_BYTES));
    let mut pushed = 0;
    for (span, (slot, first)) in momentum.zip(&reported) {
        let lands = cache.prefetch_state(*slot).expect("momentum slot");
        assert_eq!(span.end(), lands, "{span:?}");
        assert!(lands >= *first);
        pushed += usize::from(lands > *first);
        cache.release_state(*slot);
    }
    assert!(pushed > 0, "no demand read overtook a momentum prefetch");
}
