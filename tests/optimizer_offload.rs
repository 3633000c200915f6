//! Differential tests for the typed offload-class API: moving
//! gradients and optimizer state through the cache — with the update
//! inline after backward or inside backward itself — is a performance
//! decision, never a numerics one, and it must stay that way under
//! injected faults for every recovery policy.

use ssdtrain::{
    ArgValue, OffloadClass, PlacementStrategy, RecoveryPolicy, TensorCacheConfig, TraceEvent,
    TraceSink,
};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_simhw::{FaultKind, FaultPlan, FaultTrigger};
use ssdtrain_train::{OffloadBackend, SessionBuilder, SessionConfig, StepMetrics, TrainSession};

const STEPS: usize = 5;
const MOMENTUM: f32 = 0.9;

fn losses(s: &mut TrainSession, n: usize) -> Vec<f32> {
    (0..n).map(|_| s.run_step().expect("step").loss).collect()
}

/// The reference: everything resident, plain momentum SGD.
fn in_memory_builder() -> SessionBuilder {
    SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .strategy(ssdtrain::PlacementStrategy::Keep)
        .momentum(MOMENTUM)
        .seed(11)
}

fn in_memory() -> TrainSession {
    TrainSession::new(in_memory_builder().build().expect("valid config")).expect("session")
}

/// All three classes through the cache; `overlap` picks between the
/// inline update and the one that runs inside backward.
fn offloaded_builder(overlap: bool) -> SessionBuilder {
    SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(TensorCacheConfig::offload_everything())
        .offload(OffloadClass::Gradient, true)
        .offload(OffloadClass::OptimizerState, true)
        .overlap_optimizer(overlap)
        .momentum(MOMENTUM)
        .seed(11)
}

fn offloaded(overlap: bool) -> TrainSession {
    TrainSession::new(offloaded_builder(overlap).build().expect("valid config")).expect("session")
}

/// The benchmark's `sym_deep_tiered` configuration, less its model: the
/// tiered backend, coalesced stores, the group look-ahead, all three
/// classes and the in-backward update.
fn deep_tiered_builder() -> SessionBuilder {
    SessionConfig::builder()
        .backend(OffloadBackend::Tiered {
            dram_bytes: 128 << 20,
        })
        .coalesce_segment(8 << 20)
        .prefetch_group(2)
        .prefetch_depth(2)
        .offload(OffloadClass::Gradient, true)
        .offload(OffloadClass::OptimizerState, true)
        .overlap_optimizer(true)
        .momentum(MOMENTUM)
}

#[test]
fn losses_are_bit_identical_across_all_three_update_paths() {
    // In memory, inline and inside backward; with activations offloaded,
    // kept, recomputed (a checkpointed leaf is reported only after its
    // recompute read the weight) or mixed; with one micro-batch or two
    // (only the last one's backward finalises a gradient).
    let strategies = [
        PlacementStrategy::Offload,
        PlacementStrategy::Keep,
        PlacementStrategy::Recompute,
        PlacementStrategy::Hybrid {
            recompute_layers: 1,
        },
    ];
    for strategy in strategies {
        for mb in [1, 2] {
            let session = |b: SessionBuilder| {
                let cfg = b.strategy(strategy).micro_batches(mb).build();
                TrainSession::new(cfg.expect("valid config")).expect("session")
            };
            let reference = losses(&mut session(in_memory_builder()), STEPS);
            assert!(reference.iter().all(|l| l.is_finite()));
            for overlap in [false, true] {
                assert_eq!(
                    losses(&mut session(offloaded_builder(overlap)), STEPS),
                    reference,
                    "{strategy:?}, micro_batches({mb}), overlap={overlap}: drifted from the \
                     in-memory optimizer"
                );
            }
        }
    }
}

#[test]
fn weights_no_longer_trail_the_losses_by_one_update() {
    // Every update lands inside the step that computed its gradients,
    // so after the last step the weights match the in-memory run's.
    let weights = |s: &TrainSession| -> Vec<Vec<f32>> {
        let params = s.model().parameters();
        params.iter().map(|p| p.tensor().to_vec()).collect()
    };
    let mut reference = in_memory();
    let _ = losses(&mut reference, STEPS);
    for overlap in [false, true] {
        let mut s = offloaded(overlap);
        let _ = losses(&mut s, STEPS);
        assert!(
            weights(&s) == weights(&reference),
            "overlap={overlap}: weights differ from the in-memory run's after {STEPS} steps"
        );
    }
}

#[test]
fn streamed_gradients_under_micro_batching_keep_losses_bit_identical() {
    // Gradients are final only in the *last* micro-batch's backward: one
    // streamed (inline) or consumed by an update (in backward) after
    // micro-batch 0 would lose micro-batch 1's contribution. Three
    // steps: the second and third each update from reloaded state.
    const MB_STEPS: usize = 3;
    let session = |b: SessionBuilder| {
        TrainSession::new(b.micro_batches(2).build().expect("valid config")).expect("session")
    };
    let reference = losses(&mut session(in_memory_builder()), MB_STEPS);
    for overlap in [false, true] {
        assert_eq!(
            losses(&mut session(offloaded_builder(overlap)), MB_STEPS),
            reference,
            "overlap={overlap}: micro-batched streaming drifted from the in-memory optimizer"
        );
    }
}

#[test]
fn gradient_stores_start_inside_the_last_backward_only() {
    // Inline, gradients leave as autograd finalises them (in backward,
    // they are consumed in place and never stored at all).
    let is_grad_enqueue = |e: &TraceEvent| {
        let class = e.args.iter().find(|(k, _)| *k == "class");
        e.name == "store.enqueue"
            && matches!(class, Some((_, ArgValue::Str(c))) if c == OffloadClass::Gradient.label())
    };
    {
        let sink = TraceSink::enabled();
        let b = offloaded_builder(false)
            .micro_batches(2)
            .trace(sink.clone());
        let mut s = TrainSession::new(b.build().expect("valid config")).expect("session");
        let _ = losses(&mut s, 2);
        let events = sink.events();
        for step in 1..=2 {
            let in_step = || events.iter().filter(move |e| e.step == step);
            let backward: Vec<&TraceEvent> =
                in_step().filter(|e| e.name == "stage.backward").collect();
            assert_eq!(backward.len(), 2, "one backward per micro-batch");
            let (mb0, last) = (backward[0], backward[1]);
            let first = in_step()
                .filter(|e| is_grad_enqueue(e))
                .map(|e| e.ts)
                .min_by(|a, b| a.as_secs().total_cmp(&b.as_secs()))
                .expect("gradients are stashed");
            assert!(
                first > mb0.end(),
                "step {step}: a gradient left during micro-batch 0's backward"
            );
            assert!(
                first >= last.ts && first < last.end(),
                "step {step}: the first gradient store ({first:?}) is not inside the last \
                 backward ({:?}..{:?})",
                last.ts,
                last.end()
            );
        }
    }
}

#[test]
fn the_listener_hears_each_steps_last_backward_only() {
    // The session's one graph holds the gradient listener for each
    // step's last backward and no longer. Overlapped, every report
    // starts its parameter's update, which writes the fresh momentum
    // back once: so each step writes back one state per parameter, none
    // before its last backward begins, and a profiling step after them
    // writes back none and leaves every weight as it was.
    const RUN_STEPS: u32 = 3;
    let is_state_enqueue = |e: &TraceEvent| {
        let class = e.args.iter().find(|(k, _)| *k == "class");
        let state = OffloadClass::OptimizerState.label();
        e.name == "store.enqueue" && matches!(class, Some((_, ArgValue::Str(c))) if c == state)
    };
    let weights = |s: &TrainSession| -> Vec<Vec<f32>> {
        let params = s.model().parameters();
        params.iter().map(|p| p.tensor().to_vec()).collect()
    };
    let sink = TraceSink::enabled();
    let b = offloaded_builder(true).micro_batches(2).trace(sink.clone());
    let mut s = TrainSession::new(b.build().expect("valid config")).expect("session");
    let params = s.model().parameters().len();
    let _ = losses(&mut s, RUN_STEPS as usize);
    let trained = weights(&s);
    s.profile_step().expect("a healthy profiling step");
    assert!(
        weights(&s) == trained,
        "the profiling step updated a weight"
    );
    let events = sink.events();
    for step in 1..=RUN_STEPS {
        let in_step = || events.iter().filter(move |e| e.step == step);
        let last = in_step()
            .rfind(|e| e.name == "stage.backward")
            .expect("backward span");
        let writes: Vec<&TraceEvent> = in_step().filter(|e| is_state_enqueue(e)).collect();
        assert_eq!(
            writes.len(),
            params,
            "step {step}: {} state write-backs for {params} parameters",
            writes.len()
        );
        let early = writes.iter().filter(|e| e.ts < last.ts).count();
        assert_eq!(
            early, 0,
            "step {step}: {early} updates ran before the last backward began"
        );
    }
    let profiled = RUN_STEPS + 1;
    assert!(
        events
            .iter()
            .any(|e| e.step == profiled && e.name == "store.enqueue"),
        "no trace of the profiling step's activation stores"
    );
    let profile_writes = events
        .iter()
        .filter(|e| e.step == profiled && is_state_enqueue(e))
        .count();
    assert_eq!(
        profile_writes, 0,
        "the profiling backward updated {profile_writes} parameters"
    );
}

#[test]
fn state_traffic_shows_up_in_the_per_class_counters() {
    for overlap in [false, true] {
        let mut s = offloaded(overlap);
        let _ = losses(&mut s, STEPS);
        let stats = s.cache().expect("cache").stats();
        let state = stats
            .class(OffloadClass::OptimizerState)
            .expect("state lane");
        assert!(state.stores > 0, "overlap={overlap}: momentum must store");
        assert!(
            state.offloaded_bytes > 0,
            "overlap={overlap}: momentum must move"
        );
        assert_eq!(
            state.offloaded_bytes, state.reloaded_bytes,
            "overlap={overlap}: momentum round-trips completely"
        );
        let grad = stats.class(OffloadClass::Gradient).expect("gradient lane");
        if overlap {
            // The update consumes each gradient where autograd left it.
            assert_eq!(
                (grad.offloaded_bytes, grad.stores, grad.reloaded_bytes),
                (0, 0, 0),
                "the in-backward update stores no gradient"
            );
        } else {
            assert!(grad.stores > 0, "inline gradients must store");
            assert_eq!(grad.offloaded_bytes, grad.reloaded_bytes);
        }
        // The class lanes partition the global account exactly.
        let (off, re) = stats.classes.iter().fold((0, 0), |(o, r), c| {
            (o + c.offloaded_bytes, r + c.reloaded_bytes)
        });
        assert_eq!(off, stats.offloaded_bytes);
        assert_eq!(re, stats.reloaded_bytes);
    }
}

#[test]
fn optimizer_state_io_stays_inside_the_last_backward_or_at_reduce_grads() {
    // Activations stay resident, so every store and load in the trace is
    // optimizer state (gradients are consumed in place). Each is issued
    // inside the step's last backward or, for what backward left, at
    // `ReduceGrads` — never in forward, nor at the next step's start.
    for mb in [1, 2] {
        let sink = TraceSink::enabled();
        let b = offloaded_builder(true)
            .strategy(PlacementStrategy::Keep)
            .micro_batches(mb)
            .trace(sink.clone());
        let mut s = TrainSession::new(b.build().expect("valid config")).expect("session");
        let _ = losses(&mut s, 3);
        let events = sink.events();
        for step in 1..=3 {
            let in_step = || events.iter().filter(move |e| e.step == step);
            let last = in_step()
                .rfind(|e| e.name == "stage.backward")
                .expect("backward span");
            let reduce = in_step()
                .find(|e| e.name == "stage.comm" && e.ts >= last.end())
                .expect("ReduceGrads span");
            let window = last.ts..=reduce.end();
            let mut seen = (0, 0);
            for e in in_step() {
                let (store, load) = (e.name == "store.enqueue", e.name == "load");
                if !(store || load) {
                    continue;
                }
                seen.0 += usize::from(store);
                seen.1 += usize::from(load);
                assert!(
                    window.contains(&e.ts) && window.contains(&e.end()),
                    "micro_batches({mb}) step {step}: {} at {:?}..{:?} outside the last \
                     backward and ReduceGrads ({window:?})",
                    e.name,
                    e.ts,
                    e.end()
                );
            }
            assert!(seen.0 > 0, "step {step}: the fresh state is written back");
            assert!(step == 1 || seen.1 > 0, "step {step}: state is loaded back");
        }
    }
}

#[test]
fn overlap_survives_injected_faults_under_every_absorbing_policy() {
    let reference = losses(&mut in_memory(), STEPS);
    let fault = || {
        FaultPlan::new(42).with_recurring_fault(
            FaultTrigger::ByteThreshold { bytes: 16 << 10 },
            FaultKind::WriteError,
        )
    };
    for overlap in [false, true] {
        // Keep-resident: failed state stores stay on the GPU.
        let mut b = offloaded_builder(overlap)
            .recovery(RecoveryPolicy::KeepResident)
            .fault(fault());
        let mut s = TrainSession::new(b.build().expect("valid config")).expect("session");
        let mut kept = 0;
        let mut got = Vec::new();
        for _ in 0..STEPS {
            let m = s.run_step().expect("keep-resident absorbs the fault");
            kept += m.offload.kept_resident_bytes;
            got.push(m.loss);
        }
        assert!(kept > 0, "overlap={overlap}: the fault plan must fire");
        assert_eq!(got, reference, "overlap={overlap}: keep-resident numerics");

        // Fallback-target: failed state stores re-route to host DRAM.
        b = offloaded_builder(overlap)
            .recovery(RecoveryPolicy::FallbackTarget)
            .fault(fault());
        let mut s = TrainSession::new(b.build().expect("valid config")).expect("session");
        let mut fell_back = 0;
        let mut got = Vec::new();
        for _ in 0..STEPS {
            let m = s.run_step().expect("the fallback absorbs the fault");
            fell_back += m.offload.fallback_bytes;
            got.push(m.loss);
        }
        assert!(fell_back > 0, "overlap={overlap}: the fault plan must fire");
        assert_eq!(got, reference, "overlap={overlap}: fallback numerics");
    }
}

#[test]
fn fail_step_surfaces_state_store_faults_as_typed_errors() {
    for overlap in [false, true] {
        let b = offloaded_builder(overlap)
            .recovery(RecoveryPolicy::FailStep)
            .fault(FaultPlan::new(42).with_recurring_fault(
                FaultTrigger::ByteThreshold { bytes: 16 << 10 },
                FaultKind::WriteError,
            ));
        let mut s = TrainSession::new(b.build().expect("valid config")).expect("session");
        let failed = (0..STEPS).any(|_| s.run_step().is_err());
        assert!(failed, "overlap={overlap}: FailStep must surface the fault");
    }
}

#[test]
fn a_state_write_back_failing_mid_backward_fails_the_step_and_stops_the_updates() {
    // Activations stay resident, so the only writes are state
    // write-backs: step 1 stores every momentum tensor, and a one-shot
    // fault armed at 1.5× that volume fails a write-back of step 2's
    // in-backward update.
    let build = |fault: Option<FaultPlan>, sink: TraceSink| {
        let mut b = offloaded_builder(true)
            .strategy(PlacementStrategy::Keep)
            .recovery(RecoveryPolicy::FailStep)
            .trace(sink);
        if let Some(plan) = fault {
            b = b.fault(plan);
        }
        TrainSession::new(b.build().expect("valid config")).expect("session")
    };
    let first = build(None, TraceSink::disabled())
        .run_step()
        .expect("healthy");
    let state = first.offload.class(OffloadClass::OptimizerState);
    let volume = state.expect("state lane").offloaded_bytes;
    let plan = FaultPlan::new(42).with_fault(
        FaultTrigger::ByteThreshold {
            bytes: volume + volume / 2,
        },
        FaultKind::WriteError,
    );
    let sink = TraceSink::enabled();
    let mut s = build(Some(plan), sink.clone());
    s.run_step().expect("step 1 stays under the threshold");
    let weights = |s: &TrainSession| -> Vec<Vec<f32>> {
        let params = s.model().parameters();
        params.iter().map(|p| p.tensor().to_vec()).collect()
    };
    let before = weights(&s);
    assert!(s.run_step().is_err(), "the refused write-back fails step 2");
    let after = weights(&s);
    let events = sink.events();
    let step2: Vec<&TraceEvent> = events.iter().filter(|e| e.step == 2).collect();
    let fault = step2
        .iter()
        .position(|e| e.name == "recovery.fail_step")
        .expect("the fault fired in step 2");
    let is_state_store = |e: &&&TraceEvent| {
        let class = e.args.iter().find(|(k, _)| *k == "class");
        let state = OffloadClass::OptimizerState.label();
        e.name == "store.enqueue" && matches!(class, Some((_, ArgValue::Str(c))) if c == state)
    };
    // Each applied update writes its state back: none after the fault,
    // and exactly the parameters written back before it changed.
    assert_eq!(
        step2[fault..].iter().filter(is_state_store).count(),
        0,
        "an update ran after the fault"
    );
    let applied = step2[..fault].iter().filter(is_state_store).count();
    let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();
    assert!(
        applied > 0 && applied < before.len(),
        "the fault is mid-backward"
    );
    assert_eq!(changed, applied, "only updates before the fault stay");
    s.run_step().expect("the next step runs");
}

#[test]
fn momentum_read_ahead_of_its_gradient_leaves_no_optimizer_tail() {
    // Symbolic BERT H512 L24 in `sym_deep_tiered`'s configuration,
    // profiled first as the benchmark is. The token embedding's gradient
    // is final last; read only then, its momentum lands after backward
    // (2.06 ms of `opt_exposed_secs` a step). Read ahead along the order
    // the previous step finalised the gradients, it lands before
    // backward ends — and without stalling an activation reload or
    // lifting the activation peak.
    let cfg = deep_tiered_builder()
        .model(ModelConfig::paper_scale(Arch::Bert, 512, 24).with_tp(2))
        .batch_size(8)
        .symbolic(true)
        .seed(7)
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    s.profile_step().expect("profile step");
    for step in 1..=4 {
        let m = s.run_step().expect("step");
        if step < 3 {
            continue;
        }
        assert_eq!(m.opt_exposed_secs, 0.0, "step {step}: a state read tail");
        assert!(
            m.offload.stall_secs <= 0.0,
            "step {step}: load stall {} s",
            m.offload.stall_secs
        );
        assert_eq!(m.act_peak_bytes, 2_662_940_674, "step {step}: peak moved");
    }
}

#[test]
fn reading_momentum_ahead_keeps_losses_and_weights_bit_identical() {
    // The numeric twin of the configuration above: the update still
    // waits for its gradient, whenever its momentum arrived.
    let sink = TraceSink::enabled();
    let b = offloaded_builder(true)
        .backend(OffloadBackend::Tiered {
            dram_bytes: 16 << 10,
        })
        .coalesce_segment(4 << 10)
        .prefetch_group(2)
        .trace(sink.clone());
    let mut s = TrainSession::new(b.build().expect("valid config")).expect("session");
    let mut reference = in_memory();
    assert_eq!(losses(&mut s, STEPS), losses(&mut reference, STEPS));
    let weights = |s: &TrainSession| -> Vec<Vec<f32>> {
        let params = s.model().parameters();
        params.iter().map(|p| p.tensor().to_vec()).collect()
    };
    assert!(weights(&s) == weights(&reference), "final weights differ");
    let events = sink.events();
    let read_ahead = events.iter().filter(|e| e.name == "state.read_ahead");
    assert!(read_ahead.count() > 0, "the twin never read momentum ahead");
}

#[test]
fn the_overlapped_update_exposes_less_than_the_inline_one() {
    // Paper-scale symbolic run: enough state traffic that the inline
    // update's loads take measurable (simulated) time, while the
    // in-backward one hides behind backward's compute.
    let session = |overlap: bool| -> TrainSession {
        let cfg = SessionConfig::builder()
            .model(ModelConfig::paper_scale(Arch::Bert, 8192, 4).with_tp(2))
            .batch_size(16)
            .symbolic(true)
            .offload(OffloadClass::Gradient, true)
            .offload(OffloadClass::OptimizerState, true)
            .overlap_optimizer(overlap)
            .momentum(MOMENTUM)
            .seed(5)
            .build()
            .expect("valid config");
        TrainSession::new(cfg).expect("session")
    };
    // Step 1 bootstraps the state; steady state starts at step 2.
    let mut inline = session(false);
    let mut overlap = session(true);
    let (mut inline_last, mut overlap_last) = (None, None);
    for _ in 0..3 {
        inline_last = Some(inline.run_step().expect("step"));
        overlap_last = Some(overlap.run_step().expect("step"));
    }
    let inline_last = inline_last.expect("ran");
    let overlap_last = overlap_last.expect("ran");
    assert!(
        inline_last.opt_secs > 0.0,
        "the inline update must take simulated time"
    );
    assert_eq!(overlap_last.opt_secs, 0.0, "the update ran inside backward");
    assert!(
        overlap_last.opt_exposed_secs < inline_last.opt_secs,
        "overlap must expose less than the inline update: exposed {} vs inline {}",
        overlap_last.opt_exposed_secs,
        inline_last.opt_secs
    );
}

/// The optimizer-state lane's kept bytes in `m`.
fn kept_state_bytes(m: &StepMetrics) -> u64 {
    let lane = m.offload.class(OffloadClass::OptimizerState);
    lane.map_or(0, |c| c.kept_bytes)
}

#[test]
fn the_write_back_backward_waits_for_stays_on_the_gpu_once_profiled() {
    // `sym_deep_tiered`'s configuration at four layers. The token and
    // position embeddings' gradients are final last, so their momenta's
    // write-backs are the one store backward's exit waits for. The first
    // step after profiling learns that; from the next one on both
    // momenta stay on the GPU, and the step is its compute.
    let mut s = TrainSession::new(ssdtrain_bench::deep_tiered_config(4)).expect("session");
    s.profile_step().expect("profile step");
    let steps: Vec<StepMetrics> = (0..4).map(|_| s.run_step().expect("step")).collect();
    let first = &steps[0];
    let tail = first.offload.store_stall_secs;
    assert!(
        (tail - 0.008_250_496).abs() < 1e-9,
        "first step's tail {tail} s"
    );
    assert_eq!(kept_state_bytes(first), 0, "nothing is known late yet");
    for (k, m) in steps.iter().enumerate() {
        let step = k + 1;
        assert_eq!(m.act_peak_bytes, 1_864_712_194, "step {step}: peak moved");
        if step < 2 {
            continue;
        }
        assert_eq!(m.offload.store_stall_secs, 0.0, "step {step}: a store tail");
        assert_eq!(m.opt_exposed_secs, 0.0, "step {step}: a state read tail");
        let floor = first.step_secs - tail;
        assert!(
            (m.step_secs - floor).abs() < 1e-9,
            "step {step}: {} s is not the compute floor {floor} s",
            m.step_secs
        );
        // Token embedding 206 045 184 B + position embedding 4 194 304 B.
        assert_eq!(kept_state_bytes(m), 210_239_488, "step {step}: kept bytes");
    }
    // A new plan forgets what the old one kept, and learns it again.
    s.profile_step().expect("profile step");
    let relearn = s.run_step().expect("step");
    assert_eq!(kept_state_bytes(&relearn), 0, "kept across a new plan");
    assert_eq!(relearn.offload.store_stall_secs, tail);
    assert_eq!(kept_state_bytes(&s.run_step().expect("step")), 210_239_488);
}

#[test]
fn a_session_that_never_profiles_keeps_no_state() {
    // The default plan's steps stall on far more than the last
    // write-back; none of it is taken for a keep decision.
    let mut s = TrainSession::new(ssdtrain_bench::deep_tiered_config(4)).expect("session");
    for step in 1..=4 {
        let m = s.run_step().expect("step");
        assert!(
            m.offload.store_stall_secs > 0.0,
            "step {step}: no tail to learn from"
        );
        assert_eq!(
            kept_state_bytes(&m),
            0,
            "step {step}: kept state unprofiled"
        );
    }
}

#[test]
fn a_plan_set_by_hand_teaches_no_keep() {
    // The cutoff oracle's sessions: profiled, then a plan set by hand.
    let mut s = TrainSession::new(ssdtrain_bench::deep_tiered_config(4)).expect("session");
    let (_, plan) = s.profile_step().expect("profile step");
    s.cache().expect("offload strategy").set_plan(plan);
    for step in 1..=3 {
        let m = s.run_step().expect("step");
        assert!(
            (m.offload.store_stall_secs - 0.008_250_496).abs() < 1e-9,
            "step {step}: the tail moved"
        );
        assert_eq!(kept_state_bytes(&m), 0, "step {step}: kept state");
    }
}
