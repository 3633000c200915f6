//! Differential numerics under injected faults (the PR's tentpole
//! guarantee): a training run whose offload target misbehaves must
//! either produce **bit-identical losses** to the healthy run (the
//! `KeepResident` / `FallbackTarget` recovery policies) or surface a
//! structured [`StepError`] (the `FailStep` policy) — never panic and
//! never silently corrupt numerics.
//!
//! The matrix covers every [`FaultTrigger`] variant crossed with every
//! [`RecoveryPolicy`], plus read faults (unrecoverable by design) and
//! `SlowIo` degradation (numerics preserved, time stretched).

use ssdtrain::{
    ArgValue, EventKind, OffloadClass, PlacementStrategy, RecoveryPolicy, TensorCacheConfig,
    TraceSink,
};
use ssdtrain_models::ModelConfig;
use ssdtrain_simhw::{FaultKind, FaultPlan, FaultTrigger, SystemConfig};
use ssdtrain_train::{OffloadBackend, SessionConfig, StepMetrics, TrainSession};

const STEPS: usize = 3;

fn session_with(
    fault: Option<FaultPlan>,
    recovery: RecoveryPolicy,
    cache: TensorCacheConfig,
    trace: TraceSink,
) -> TrainSession {
    let mut builder = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(cache)
        .recovery(recovery)
        .seed(23)
        .trace(trace);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    let cfg = builder.build().expect("valid config");
    TrainSession::new(cfg).expect("session construction")
}

fn session(fault: Option<FaultPlan>, recovery: RecoveryPolicy) -> TrainSession {
    let cache = TensorCacheConfig::offload_everything();
    session_with(fault, recovery, cache, TraceSink::disabled())
}

/// The coalesced pipeline variant of the same run: stores coalesce into
/// 4 KiB segments and backward consumes module groups of two under the
/// group look-ahead. The segments are small so that forward's early
/// ones land — and are committed, as segment writes — before backward
/// is announced: `tiny_gpt` saves 36 KB a step, so a segment that only
/// seals at forward's exit is still in flight then and the look-ahead
/// forwards all of it without the target ever seeing a write.
fn coalesced_session(fault: Option<FaultPlan>, recovery: RecoveryPolicy) -> TrainSession {
    let mut cache = TensorCacheConfig::offload_everything();
    cache.coalesce_segment_bytes = 4 << 10;
    cache.prefetch_group_modules = 2;
    session_with(fault, recovery, cache, TraceSink::disabled())
}

/// Runs `STEPS` steps, asserting every one succeeds, and returns the
/// per-step metrics.
fn run(s: &mut TrainSession) -> Vec<StepMetrics> {
    (0..STEPS)
        .map(|i| {
            s.run_step()
                .unwrap_or_else(|e| panic!("step {i} should recover, got: {e}"))
        })
        .collect()
}

fn loss_bits(metrics: &[StepMetrics]) -> Vec<u32> {
    metrics.iter().map(|m| m.loss.to_bits()).collect()
}

fn baseline_bits() -> Vec<u32> {
    loss_bits(&run(&mut session(None, RecoveryPolicy::KeepResident)))
}

/// All write-capable triggers, each built around the same injected
/// write failure.
fn write_fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            // Op 0 is the run's first committed store; later op indices
            // interleave with restore reads, which a write fault skips.
            "nth-op",
            FaultPlan::new(7).with_fault(FaultTrigger::NthOp { nth: 0 }, FaultKind::WriteError),
        ),
        (
            "byte-threshold",
            FaultPlan::new(7).with_fault(
                FaultTrigger::ByteThreshold { bytes: 1 },
                FaultKind::WriteError,
            ),
        ),
        (
            "wear-fraction",
            FaultPlan::new(7).with_fault(
                FaultTrigger::WearFraction { fraction: 0.0 },
                FaultKind::EnduranceExhausted,
            ),
        ),
        (
            "random",
            FaultPlan::new(7).with_fault(FaultTrigger::Random { prob: 1.0 }, FaultKind::WriteError),
        ),
    ]
}

#[test]
fn healthy_runs_are_deterministic() {
    // The anchor for every differential test below.
    assert_eq!(baseline_bits(), baseline_bits());
}

#[test]
fn keep_resident_is_bit_identical_for_every_trigger() {
    let base = baseline_bits();
    for (name, plan) in write_fault_plans() {
        let mut s = session(Some(plan), RecoveryPolicy::KeepResident);
        let metrics = run(&mut s);
        assert_eq!(
            loss_bits(&metrics),
            base,
            "{name}: keep-resident recovery must not change numerics"
        );
        let log = s.fault_log().expect("session has a fault plan");
        assert!(log.write_faults >= 1, "{name}: the fault should fire");
        let failures: u64 = metrics.iter().map(|m| m.offload.store_failures).sum();
        let kept: u64 = metrics.iter().map(|m| m.offload.kept_resident_bytes).sum();
        assert!(failures >= 1, "{name}: store_failures should be counted");
        assert!(kept > 0, "{name}: failed stores should stay resident");
        assert!(
            metrics.iter().any(StepMetrics::degraded),
            "{name}: the affected step should report degraded mode"
        );
    }
}

#[test]
fn fallback_target_is_bit_identical_for_every_trigger() {
    let base = baseline_bits();
    for (name, plan) in write_fault_plans() {
        let sink = TraceSink::enabled();
        let cache = TensorCacheConfig::offload_everything();
        let mut s = session_with(
            Some(plan),
            RecoveryPolicy::FallbackTarget,
            cache,
            sink.clone(),
        );
        let metrics = run(&mut s);
        assert_eq!(
            loss_bits(&metrics),
            base,
            "{name}: fallback recovery must not change numerics"
        );
        let fallback: u64 = metrics.iter().map(|m| m.offload.fallback_bytes).sum();
        assert!(
            fallback > 0,
            "{name}: failed stores should land on the fallback target"
        );
        // The spill of last resort is the host pinned pool.
        let events = sink.events();
        let fallbacks: Vec<_> = events
            .iter()
            .filter(|e| e.name == "recovery.fallback")
            .collect();
        assert!(
            !fallbacks.is_empty(),
            "{name}: no recovery.fallback instant"
        );
        for e in fallbacks {
            let target = e.args.iter().find(|(k, _)| *k == "target");
            assert!(
                matches!(target, Some((_, ArgValue::Str(t))) if t == "cpu"),
                "{name}: {e:?}"
            );
        }
        let failures: u64 = metrics.iter().map(|m| m.offload.store_failures).sum();
        assert!(failures >= 1, "{name}: store_failures should be counted");
    }
}

#[test]
fn a_fallback_tier_adds_no_link_time_of_its_own() {
    // `FallbackTarget` appends the host pool as a demotion tier priced on
    // the front tier's link. The link's seconds are the front tier's, so
    // the tiers sum to the engine in the stats and in the trace, whether
    // the pool stays unused (healthy) or takes demoted stores.
    let faulted =
        FaultPlan::new(7).with_fault(FaultTrigger::NthOp { nth: 0 }, FaultKind::WriteError);
    for (name, plan, demotes) in [("healthy", None, false), ("faulted", Some(faulted), true)] {
        let sink = TraceSink::enabled();
        let cache = TensorCacheConfig::offload_everything();
        let mut s = session_with(plan, RecoveryPolicy::FallbackTarget, cache, sink.clone());
        let m = s.run_step().expect("fallback recovers");
        let io = s.cache().expect("an offload session has a cache").io();
        let (write, read) = (io.write_busy_secs(), io.read_busy_secs_on(0));
        assert!(write > 0.0 && read > 0.0, "{name}: the step moved bytes");
        let tiers = &m.offload.tiers;
        let names: Vec<&str> = tiers.iter().map(|t| &*t.name).collect();
        assert_eq!(names, ["ssd", "cpu"], "{name}");
        let tier_write: f64 = tiers.iter().map(|t| t.write_busy_secs).sum();
        let tier_read: f64 = tiers.iter().map(|t| t.read_busy_secs).sum();
        assert_eq!((tier_write, tier_read), (write, read), "{name}");
        let fallback = &tiers[1];
        assert_eq!(
            (
                fallback.write_busy_secs,
                fallback.read_busy_secs,
                fallback.stall_secs
            ),
            (0.0, 0.0, 0.0),
            "{name}: the fallback tier reports none of the shared link's time"
        );
        assert_eq!(fallback.bytes_written > 0, demotes, "{name}");
        let traced: f64 = sink
            .events()
            .iter()
            .filter(|e| e.name.starts_with("tier.io."))
            .map(|e| {
                let secs = e.arg_f64("write_busy_secs");
                secs.unwrap_or_else(|| panic!("{name}: no write_busy_secs in {e:?}"))
            })
            .sum();
        assert_eq!(traced, write, "{name}: the trace's tier.io instants");
    }
}

#[test]
fn fail_step_surfaces_structured_error_for_every_trigger() {
    for (name, plan) in write_fault_plans() {
        let mut s = session(Some(plan), RecoveryPolicy::FailStep);
        let mut saw_error = false;
        for _ in 0..STEPS {
            match s.run_step() {
                Ok(_) => {}
                Err(err) => {
                    saw_error = true;
                    assert!(
                        err.error.is_store(),
                        "{name}: a write fault surfaces as a store error"
                    );
                    let m = err.metrics.as_ref().expect("degraded metrics attached");
                    assert!(m.offload.store_failures >= 1, "{name}");
                    // The write failed after the payload left the GPU
                    // copy untouched, so even the failing step's own
                    // loss is the healthy one.
                    assert!(m.loss.is_finite(), "{name}: loss stays numeric");
                }
            }
        }
        assert!(
            saw_error,
            "{name}: fail-step policy should surface the fault"
        );
    }
}

#[test]
fn coalesced_path_is_bit_identical_to_the_per_tensor_path() {
    // The pipeline changes *when and how* bytes move, never *what*
    // comes back: a healthy coalesced + group-prefetched run reproduces
    // the per-tensor baseline bit for bit, while actually exercising
    // the segment path.
    let base = baseline_bits();
    let mut s = coalesced_session(None, RecoveryPolicy::KeepResident);
    let metrics = run(&mut s);
    assert_eq!(
        loss_bits(&metrics),
        base,
        "coalescing must not change numerics"
    );
    let segments: u64 = metrics.iter().map(|m| m.offload.coalesce_segments).sum();
    let groups: u64 = metrics.iter().map(|m| m.offload.prefetch_groups).sum();
    assert!(segments > 0, "the coalescer must actually seal segments");
    assert!(groups > 0, "group prefetch must actually run");
}

#[test]
fn coalesced_keep_resident_is_bit_identical_for_every_trigger() {
    // A failed segment write degrades the whole segment (its members
    // stay resident), per RecoveryPolicy — still bit-identical.
    let base = baseline_bits();
    for (name, plan) in write_fault_plans() {
        let mut s = coalesced_session(Some(plan), RecoveryPolicy::KeepResident);
        let metrics = run(&mut s);
        assert_eq!(
            loss_bits(&metrics),
            base,
            "{name}: coalesced keep-resident recovery must not change numerics"
        );
        let log = s.fault_log().expect("session has a fault plan");
        assert!(log.write_faults >= 1, "{name}: the fault should fire");
        let failures: u64 = metrics.iter().map(|m| m.offload.store_failures).sum();
        let kept: u64 = metrics.iter().map(|m| m.offload.kept_resident_bytes).sum();
        assert!(failures >= 1, "{name}: store_failures should be counted");
        assert!(
            kept > 0,
            "{name}: the failed segment's members stay resident"
        );
    }
}

#[test]
fn coalesced_fallback_target_is_bit_identical_for_every_trigger() {
    let base = baseline_bits();
    for (name, plan) in write_fault_plans() {
        let mut s = coalesced_session(Some(plan), RecoveryPolicy::FallbackTarget);
        let metrics = run(&mut s);
        assert_eq!(
            loss_bits(&metrics),
            base,
            "{name}: coalesced fallback recovery must not change numerics"
        );
        let fallback: u64 = metrics.iter().map(|m| m.offload.fallback_bytes).sum();
        assert!(
            fallback > 0,
            "{name}: the failed segment's members should demote to the fallback"
        );
        let failures: u64 = metrics.iter().map(|m| m.offload.store_failures).sum();
        assert!(failures >= 1, "{name}: store_failures should be counted");
    }
}

#[test]
fn coalesced_fail_step_surfaces_structured_error_for_every_trigger() {
    for (name, plan) in write_fault_plans() {
        let mut s = coalesced_session(Some(plan), RecoveryPolicy::FailStep);
        let mut saw_error = false;
        for _ in 0..STEPS {
            match s.run_step() {
                Ok(_) => {}
                Err(err) => {
                    saw_error = true;
                    assert!(
                        err.error.is_store(),
                        "{name}: a segment write fault surfaces as a store error"
                    );
                    let m = err.metrics.as_ref().expect("degraded metrics attached");
                    assert!(m.offload.store_failures >= 1, "{name}");
                    assert!(m.loss.is_finite(), "{name}: loss stays numeric");
                }
            }
        }
        assert!(
            saw_error,
            "{name}: fail-step policy should surface the segment fault"
        );
    }
}

/// The coalesced run on an array so slow (20 MB/s) that forward's first
/// segment is still being written when forward exits: it lands during
/// backward and is committed there, when backward reaches its members
/// one module at a time; everything queued behind it is forwarded.
fn crossing_session(
    fault: Option<FaultPlan>,
    recovery: RecoveryPolicy,
    sink: TraceSink,
) -> TrainSession {
    let mut cache = TensorCacheConfig::offload_everything();
    cache.coalesce_segment_bytes = 4 << 10;
    cache.prefetch_depth = 1;
    let mut system = SystemConfig::dac_testbed();
    system.ssd_array.member.write_bps = 5e6;
    let mut builder = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(cache)
        .system(system)
        .recovery(recovery)
        .trace(sink)
        .seed(23);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    TrainSession::new(builder.build().expect("valid config")).expect("session construction")
}

#[test]
fn a_segment_that_lands_during_backward_degrades_per_policy() {
    // The reference is the keep twin: same model and seed, nothing
    // offloaded.
    let keep = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .strategy(PlacementStrategy::Keep)
        .seed(23)
        .build()
        .expect("valid config");
    let keep_bits = loss_bits(&run(&mut TrainSession::new(keep).expect("session")));

    // Healthy: every segment the run commits was still on the link when
    // its forward exited, so whichever write a fault hits is one that
    // crossed into backward.
    let sink = TraceSink::enabled();
    let mut s = crossing_session(None, RecoveryPolicy::KeepResident, sink.clone());
    assert_eq!(loss_bits(&run(&mut s)), keep_bits);
    let events = sink.events();
    let end_of = |e: &ssdtrain::TraceEvent| match e.kind {
        EventKind::Span { dur_secs } => e.ts.as_secs() + dur_secs,
        _ => panic!("{} must be a span", e.name),
    };
    let mut commits = 0;
    for step in 1..=STEPS as u32 {
        let in_step = || events.iter().filter(move |e| e.step == step);
        let forward = in_step()
            .find(|e| e.name == "stage.forward")
            .expect("forward stage span");
        for store in in_step().filter(|e| e.name == "store") {
            assert!(
                end_of(store) > end_of(forward),
                "step {step}: a store landed at {} inside forward (ends {})",
                end_of(store),
                end_of(forward)
            );
            commits += 1;
        }
    }
    assert!(commits > 0, "the fixture must commit a crossing segment");

    let fault =
        || FaultPlan::new(7).with_fault(FaultTrigger::NthOp { nth: 0 }, FaultKind::WriteError);
    for policy in [RecoveryPolicy::KeepResident, RecoveryPolicy::FallbackTarget] {
        let mut s = crossing_session(Some(fault()), policy, TraceSink::disabled());
        let metrics = run(&mut s);
        assert_eq!(loss_bits(&metrics), keep_bits, "{policy:?}");
        assert_eq!(s.fault_log().expect("fault plan").write_faults, 1);
        let failures: u64 = metrics.iter().map(|m| m.offload.store_failures).sum();
        let kept: u64 = metrics.iter().map(|m| m.offload.kept_resident_bytes).sum();
        let fallback: u64 = metrics.iter().map(|m| m.offload.fallback_bytes).sum();
        assert_eq!(failures, 1, "{policy:?}: one segment, one decision");
        if policy == RecoveryPolicy::FallbackTarget {
            assert!(fallback > 0 && kept == 0, "{policy:?}: {fallback} / {kept}");
        } else {
            assert!(kept > 0 && fallback == 0, "{policy:?}: {kept} / {fallback}");
        }
    }

    // FailStep surfaces the failed step and skips its update, so only
    // the steps up to and including it are comparable: their losses
    // were computed before the fault could matter.
    let mut s = crossing_session(
        Some(fault()),
        RecoveryPolicy::FailStep,
        TraceSink::disabled(),
    );
    let err = s.run_step().expect_err("the first commit fails the step");
    assert!(err.error.is_store());
    let m = err.metrics.expect("degraded metrics attached");
    assert_eq!(m.offload.store_failures, 1);
    assert_eq!(m.loss.to_bits(), keep_bits[0]);
}

#[test]
fn read_faults_always_surface_as_load_errors() {
    // Lost activation bytes are unrecoverable (the GPU copy is released
    // once the store commits), so every policy surfaces a load error
    // after exhausting its retries.
    for policy in [
        RecoveryPolicy::KeepResident,
        RecoveryPolicy::FallbackTarget,
        RecoveryPolicy::FailStep,
    ] {
        let plan = FaultPlan::new(11).with_recurring_fault(
            FaultTrigger::ByteThreshold { bytes: 0 },
            FaultKind::ReadError,
        );
        let mut s = session(Some(plan), policy);
        let mut saw_load_error = false;
        for _ in 0..STEPS {
            if let Err(err) = s.run_step() {
                saw_load_error = true;
                assert!(
                    !err.error.is_store(),
                    "{policy:?}: a read fault surfaces as a load error"
                );
                let m = err.metrics.expect("degraded metrics attached");
                assert!(m.offload.load_retries >= 1, "{policy:?}: retries counted");
            }
        }
        assert!(
            saw_load_error,
            "{policy:?}: unreadable activations must surface an error"
        );
    }
}

/// The in-backward update over the group look-ahead, on one SSD tier
/// (every operation passes the fault plan) slow enough that forward's
/// last stores are forwarded when backward is announced: the look-ahead
/// issues its last group early, and momentum is read ahead of its
/// gradient.
fn read_ahead_session(
    fault: Option<FaultPlan>,
    recovery: RecoveryPolicy,
    sink: TraceSink,
) -> TrainSession {
    let mut cache = TensorCacheConfig::offload_everything();
    cache.prefetch_group_modules = 2;
    let mut system = SystemConfig::dac_testbed();
    system.ssd_array.member.write_bps = 5e6;
    let mut builder = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(cache)
        .system(system)
        .backend(OffloadBackend::Ssd)
        .offload(OffloadClass::Gradient, true)
        .offload(OffloadClass::OptimizerState, true)
        .overlap_optimizer(true)
        .momentum(0.9)
        .recovery(recovery)
        .trace(sink)
        .seed(23);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    TrainSession::new(builder.build().expect("valid config")).expect("session construction")
}

#[test]
fn a_read_fault_on_momentum_read_ahead_fails_the_step_under_every_policy() {
    // Where the first read ahead sits among the device's operations on a
    // healthy run: every committed store is one write (segments of one)
    // and every `load` one read, in the order the trace emits them.
    let sink = TraceSink::enabled();
    run(&mut read_ahead_session(
        None,
        RecoveryPolicy::KeepResident,
        sink.clone(),
    ));
    let (mut ops, mut ahead, mut target) = (0, false, None);
    for e in sink.events() {
        match e.name.as_str() {
            "state.read_ahead" => ahead = true,
            "load" if ahead => {
                target = Some((ops, e.step));
                break;
            }
            "store" | "load" => ops += 1,
            _ => {}
        }
    }
    let (nth, step) = target.expect("the healthy run reads momentum ahead");
    for policy in [
        RecoveryPolicy::KeepResident,
        RecoveryPolicy::FallbackTarget,
        RecoveryPolicy::FailStep,
    ] {
        // That read fails on every attempt.
        let attempts = 0..=u64::from(ssdtrain::config::MAX_IO_RETRIES);
        let plan = attempts.fold(FaultPlan::new(11), |plan, k| {
            plan.with_fault(FaultTrigger::NthOp { nth: nth + k }, FaultKind::ReadError)
        });
        let sink = TraceSink::enabled();
        let mut s = read_ahead_session(Some(plan), policy, sink.clone());
        for k in 1..step {
            s.run_step()
                .unwrap_or_else(|e| panic!("{policy:?}: step {k} failed: {e}"));
        }
        let err = s.run_step().expect_err("the lost momentum fails its step");
        assert!(!err.error.is_store(), "{policy:?}: a load error");
        let m = err.metrics.expect("degraded metrics attached");
        assert!(m.offload.load_retries >= 1, "{policy:?}: retries counted");
        let log = s.fault_log().expect("fault plan");
        assert_eq!(log.read_faults, 3, "{policy:?}: one read, every attempt");
        let events = sink.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        let first = names.iter().position(|n| *n == "fault.read_error");
        let first = first.expect("the fault fired");
        let ahead = names[..first]
            .iter()
            .rposition(|n| *n == "state.read_ahead");
        let since = &names[ahead.expect("a read ahead before the fault")..first];
        assert_eq!(
            since.iter().filter(|n| **n == "load").count(),
            1,
            "{policy:?}: the failed read is not the read ahead: {since:?}"
        );
        s.run_step().expect("the next step runs");
    }
}

#[test]
fn slow_io_preserves_numerics_and_stretches_the_step() {
    let base = run(&mut session(None, RecoveryPolicy::KeepResident));
    let plan = FaultPlan::new(3).with_fault(
        FaultTrigger::NthOp { nth: 0 },
        FaultKind::SlowIo { factor: 64.0 },
    );
    let mut s = session(Some(plan), RecoveryPolicy::KeepResident);
    let slowed = run(&mut s);
    assert_eq!(
        loss_bits(&slowed),
        loss_bits(&base),
        "throttling is a timing event, not a numeric one"
    );
    let log = s.fault_log().expect("session has a fault plan");
    assert_eq!(log.slowdowns, 1);
    // A 64x-slower device can only make simulated steps slower.
    let base_total: f64 = base.iter().map(|m| m.step_secs).sum();
    let slow_total: f64 = slowed.iter().map(|m| m.step_secs).sum();
    assert!(
        slow_total >= base_total,
        "throttled run should not get faster ({slow_total} < {base_total})"
    );
    // SlowIo is degradation, not failure: nothing should be rerouted.
    for m in &slowed {
        assert_eq!(m.offload.store_failures, 0);
        assert_eq!(m.offload.kept_resident_bytes, 0);
        assert_eq!(m.offload.fallback_bytes, 0);
    }
}

#[test]
fn fault_free_plan_changes_nothing() {
    // A session carrying an empty plan must behave exactly like one
    // without the decorator at all.
    let base = baseline_bits();
    let mut s = session(Some(FaultPlan::new(99)), RecoveryPolicy::KeepResident);
    let metrics = run(&mut s);
    assert_eq!(loss_bits(&metrics), base);
    let log = s.fault_log().expect("plan attached");
    assert_eq!(log.write_faults + log.read_faults, 0);
    assert!(log.ops > 0, "the decorator still observes traffic");
}
