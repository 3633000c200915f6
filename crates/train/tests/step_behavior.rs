//! End-to-end step behaviour across the three ROK strategies, at both
//! functional (numeric) and paper (symbolic) scale.

use ssdtrain::{EventKind, PlacementStrategy, TensorCacheConfig, TraceSink};
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_train::{OffloadBackend, SessionConfig, TrainSession};

fn numeric_session(strategy: PlacementStrategy, seed: u64) -> TrainSession {
    traced_session(strategy, seed, TraceSink::disabled())
}

fn traced_session(strategy: PlacementStrategy, seed: u64, trace: TraceSink) -> TrainSession {
    let cfg = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .strategy(strategy)
        .cache(TensorCacheConfig {
            min_offload_numel: 0,
            adaptive: false,
            ..TensorCacheConfig::default()
        })
        .seed(seed)
        .trace(trace)
        .build()
        .expect("valid config");
    TrainSession::new(cfg).expect("session")
}

fn paper_session(
    strategy: PlacementStrategy,
    hidden: usize,
    layers: usize,
    batch: usize,
) -> TrainSession {
    let cfg = SessionConfig::builder()
        .model(ModelConfig::paper_scale(Arch::Bert, hidden, layers).with_tp(2))
        .batch_size(batch)
        .strategy(strategy)
        .symbolic(true)
        .seed(3)
        .build()
        .expect("valid config");
    TrainSession::new(cfg).expect("session")
}

// ---------------------------------------------------------------------
// Functional equivalence across strategies
// ---------------------------------------------------------------------

#[test]
fn three_strategies_produce_identical_losses() {
    let mut keep = numeric_session(PlacementStrategy::Keep, 5);
    let mut off = numeric_session(PlacementStrategy::Offload, 5);
    let mut rec = numeric_session(PlacementStrategy::Recompute, 5);
    for step in 0..3 {
        let lk = keep.run_step().expect("step").loss;
        let lo = off.run_step().expect("step").loss;
        let lr = rec.run_step().expect("step").loss;
        assert_eq!(lk, lo, "step {step}: keep vs offload");
        assert_eq!(lk, lr, "step {step}: keep vs recompute");
    }
}

#[test]
fn every_strategy_updates_inside_its_step_span() {
    // With no state class offloaded the weight update still runs through
    // the optimizer engine, inside the measured step: one zero-length
    // `opt.stage{j}` span per stage job (a stage per layer), and no
    // simulated second of its own.
    let stages = ModelConfig::tiny_gpt().layers;
    for strategy in [
        PlacementStrategy::Keep,
        PlacementStrategy::Recompute,
        PlacementStrategy::Offload,
    ] {
        let sink = TraceSink::enabled();
        let mut s = traced_session(strategy, 5, sink.clone());
        for step in 1..=2 {
            let m = s.run_step().expect("step");
            assert_eq!(m.opt_secs, 0.0, "{strategy} step {step}");
            let events: Vec<_> = sink
                .events()
                .into_iter()
                .filter(|e| e.step == step)
                .collect();
            let spans = |name: &str| -> Vec<_> {
                let named = events.iter().filter(|e| e.name == name);
                named
                    .filter(|e| matches!(e.kind, EventKind::Span { .. }))
                    .collect()
            };
            let [step_span] = spans("step")[..] else {
                panic!("{strategy} step {step}: one step span");
            };
            for j in 0..stages {
                let opt = spans(&format!("opt.stage{j}"));
                let [opt] = opt[..] else {
                    panic!("{strategy} step {step}: one opt.stage{j} span, got {opt:?}");
                };
                assert_eq!(opt.kind, EventKind::Span { dur_secs: 0.0 });
                assert!(
                    step_span.ts <= opt.ts && opt.end() <= step_span.end(),
                    "{strategy} step {step}: opt.stage{j} outside the step span"
                );
            }
            assert!(spans(&format!("opt.stage{stages}")).is_empty());
        }
    }
}

#[test]
fn offload_session_exercises_the_cache() {
    let mut off = numeric_session(PlacementStrategy::Offload, 7);
    let m = off.run_step().expect("step");
    assert!(m.offload.store_jobs > 0, "{:?}", m.offload);
    assert!(m.loss.is_finite());
    // Losses keep improving over steps on the same data distribution.
    let m5 = (0..5)
        .map(|_| off.run_step().expect("step").loss)
        .last()
        .unwrap();
    assert!(m5.is_finite());
}

#[test]
fn micro_batches_accumulate_gradients() {
    let cfg = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(4)
        .micro_batches(2)
        .cache(TensorCacheConfig {
            min_offload_numel: 0,
            adaptive: false,
            ..TensorCacheConfig::default()
        })
        .seed(11)
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    let m = s.run_step().expect("step");
    assert!(m.loss.is_finite());
    assert!(m.offload.store_jobs > 0);
}

// ---------------------------------------------------------------------
// Paper-scale timing and memory (symbolic)
// ---------------------------------------------------------------------

#[test]
fn offload_matches_keep_step_time_and_cuts_activation_peak() {
    // The paper's Q1/Q2 (Figure 10): with adaptive offloading the step
    // time is within noise of keeping activations resident, while the
    // activation peak drops by roughly 28-47%.
    let mut keep = paper_session(PlacementStrategy::Keep, 8192, 4, 16);
    let mk = keep.run_step().expect("step");

    let mut off = paper_session(PlacementStrategy::Offload, 8192, 4, 16);
    let _ = off.profile_step().expect("profile step");
    let mo = off.run_step().expect("step");

    let overhead = mo.step_secs / mk.step_secs - 1.0;
    assert!(
        overhead.abs() < 0.02,
        "offload overhead {:.2}% (keep {:.4}s vs offload {:.4}s, stall {:.4}s)",
        overhead * 100.0,
        mk.step_secs,
        mo.step_secs,
        mo.offload.stall_secs,
    );
    let reduction = 1.0 - mo.act_peak_bytes as f64 / mk.act_peak_bytes as f64;
    assert!(
        reduction > 0.20,
        "activation peak reduction {:.1}% (keep {:.2} GiB, offload {:.2} GiB)",
        reduction * 100.0,
        mk.act_peak_gib(),
        mo.act_peak_gib(),
    );
}

#[test]
fn recompute_is_slower_but_smaller_than_keep() {
    let mut keep = paper_session(PlacementStrategy::Keep, 8192, 4, 16);
    let mk = keep.run_step().expect("step");
    let mut rec = paper_session(PlacementStrategy::Recompute, 8192, 4, 16);
    let mr = rec.run_step().expect("step");
    assert!(
        mr.step_secs > mk.step_secs * 1.15,
        "recompute {:.4}s vs keep {:.4}s",
        mr.step_secs,
        mk.step_secs
    );
    assert!(
        mr.act_peak_bytes < mk.act_peak_bytes,
        "recompute peak {} vs keep {}",
        mr.act_peak_bytes,
        mk.act_peak_bytes
    );
    // Model throughput counts algorithmic FLOPs only, so recompute's
    // extra forward lowers it.
    assert!(mr.model_tflops() < mk.model_tflops() * 0.9);
}

#[test]
fn rok_ordering_holds_at_paper_shape() {
    // Figure 11's qualitative shape: offload matches keep's throughput
    // with the lowest activation peak; recompute sits below keep in
    // throughput.
    let run = |strategy| {
        let mut s = paper_session(strategy, 12288, 3, 16);
        if strategy == PlacementStrategy::Offload {
            let _ = s.profile_step().expect("profile step");
        }
        s.run_step().expect("step")
    };
    let keep = run(PlacementStrategy::Keep);
    let off = run(PlacementStrategy::Offload);
    let rec = run(PlacementStrategy::Recompute);

    // Offload roughly halves keep's peak (the paper's "double the batch
    // size with the same activations memory budget").
    assert!(
        (off.act_peak_bytes as f64) < 0.60 * keep.act_peak_bytes as f64,
        "offload {} vs keep {}",
        off.act_peak_bytes,
        keep.act_peak_bytes
    );
    // Offload's peak sits in recompute's neighbourhood (the paper
    // measures it strictly below; our idealised recompute — no allocator
    // fragmentation — lands within ~45%, see EXPERIMENTS.md).
    assert!(
        (off.act_peak_bytes as f64) < 1.45 * rec.act_peak_bytes as f64,
        "offload {} vs recompute {}",
        off.act_peak_bytes,
        rec.act_peak_bytes
    );
    assert!(
        rec.act_peak_bytes < keep.act_peak_bytes,
        "recompute vs keep peak"
    );
    let thr_ratio = off.model_tflops() / keep.model_tflops();
    assert!(
        (thr_ratio - 1.0).abs() < 0.02,
        "offload/keep throughput {thr_ratio}"
    );
    assert!(rec.model_tflops() < keep.model_tflops());
}

#[test]
fn memory_footprint_peaks_at_backward_start_without_offload() {
    // Figure 7's black curve: without offloading, the activation curve
    // peaks exactly when backward begins.
    let mut keep = paper_session(PlacementStrategy::Keep, 8192, 4, 16);
    let m = keep.run_step().expect("step");
    assert!(
        m.act_at_bwd_start as f64 >= 0.98 * m.act_peak_bytes as f64,
        "at bwd start {} vs peak {}",
        m.act_at_bwd_start,
        m.act_peak_bytes
    );
    // With offloading, the level at backward start is far below keep's.
    let mut off = paper_session(PlacementStrategy::Offload, 8192, 4, 16);
    let _ = off.profile_step().expect("profile step");
    let mo = off.run_step().expect("step");
    assert!(
        mo.act_at_bwd_start < m.act_at_bwd_start,
        "offload start-of-backward {} vs keep {}",
        mo.act_at_bwd_start,
        m.act_at_bwd_start
    );
}

#[test]
fn offload_io_is_fully_overlapped_at_paper_scale() {
    let mut off = paper_session(PlacementStrategy::Offload, 8192, 4, 16);
    let _ = off.profile_step().expect("profile step");
    let m = off.run_step().expect("step");
    assert!(
        m.offload.stall_secs < 0.01 * m.step_secs,
        "exposed I/O {:.6}s in a {:.4}s step",
        m.offload.stall_secs,
        m.step_secs
    );
    assert!(m.offload.offloaded_bytes > 0);
}

#[test]
fn profile_step_returns_the_plan_derived_after_its_backward() {
    // Group look-ahead over a deep stack on a 1 GiB DRAM tier: forward's
    // tail is still queued when backward is announced, so the plan keeps
    // modules the cutoff would offload.
    let cfg = SessionConfig::builder()
        .model(ModelConfig::paper_scale(Arch::Bert, 2048, 8).with_tp(2))
        .batch_size(8)
        .symbolic(true)
        .backend(OffloadBackend::Tiered {
            dram_bytes: 1 << 30,
        })
        .coalesce_segment(64 << 20)
        .prefetch_group(2)
        .prefetch_depth(2)
        .seed(7)
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    let (profile, plan) = s.profile_step().expect("profile step");
    assert_eq!(plan, s.cache().expect("offload session").plan());
    let last = plan.last_offloaded.expect("the cutoff offloads a prefix");
    let kept_before_cutoff = profile.modules[..=last]
        .iter()
        .filter(|m| plan.keeps(&m.path))
        .count();
    assert!(
        kept_before_cutoff > 0,
        "nothing kept before the cutoff: {plan:?}"
    );
}

#[test]
fn the_profiling_step_runs_its_micro_batch_under_stage_scopes() {
    // The profiling step runs the first micro-batch's four commands
    // through the step runner, each inside its stage scope, and tracing
    // it changes nothing it measures.
    let profile = |trace: TraceSink| {
        let cfg = SessionConfig::builder()
            .model(ModelConfig::paper_scale(Arch::Bert, 2048, 8).with_tp(2))
            .batch_size(8)
            .micro_batches(2)
            .symbolic(true)
            .prefetch_group(2)
            .seed(7)
            .trace(trace)
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        s.profile_step().expect("profile step").1
    };
    let sink = TraceSink::enabled();
    let traced = profile(sink.clone());
    let stages: Vec<String> = (sink.events().into_iter())
        .filter(|e| e.name.starts_with("stage."))
        .map(|e| e.name)
        .collect();
    assert_eq!(
        stages,
        [
            "stage.load_mb0",
            "stage.forward",
            "stage.comm",
            "stage.backward"
        ]
    );
    let untraced = profile(TraceSink::disabled());
    assert!(!traced.keep_paths.is_empty());
    assert_eq!(traced.keep_paths, untraced.keep_paths);
}

#[test]
fn t5_and_gpt_paper_shapes_run_symbolically() {
    for arch in [Arch::Gpt, Arch::T5] {
        let cfg = SessionConfig::builder()
            .model(ModelConfig::paper_scale(arch, 2048, 2).with_tp(2))
            .batch_size(4)
            .symbolic(true)
            .seed(9)
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        let m = s.run_step().expect("step");
        assert!(m.step_secs > 0.0, "{arch}");
        assert!(m.offload.offloaded_bytes > 0, "{arch}");
    }
}

// ---------------------------------------------------------------------
// Hybrid recompute + offload (the ROK interior)
// ---------------------------------------------------------------------

#[test]
fn hybrid_strategy_is_numerically_identical_too() {
    let mut keep = numeric_session(PlacementStrategy::Keep, 23);
    let mut hybrid = numeric_session(
        PlacementStrategy::Hybrid {
            recompute_layers: 1,
        },
        23,
    );
    for step in 0..3 {
        let lk = keep.run_step().expect("step").loss;
        let lh = hybrid.run_step().expect("step").loss;
        assert_eq!(lk, lh, "step {step}");
    }
}

#[test]
fn hybrid_interpolates_between_offload_and_recompute() {
    // Recomputing some layers trades a little throughput for offload
    // traffic: hybrid must offload less than pure offload, run slower
    // than it, and faster than full recomputation — all without exposing
    // I/O.
    let run = |strategy: PlacementStrategy| {
        let mut s = paper_session(strategy, 8192, 4, 16);
        if strategy.uses_cache() {
            let _ = s.profile_step().expect("profile step");
        }
        s.run_step().expect("step")
    };
    let off = run(PlacementStrategy::Offload);
    let hyb = run(PlacementStrategy::Hybrid {
        recompute_layers: 2,
    });
    let rec = run(PlacementStrategy::Recompute);

    assert!(
        hyb.offload.stall_secs < 0.01 * hyb.step_secs,
        "{:?}",
        hyb.offload
    );
    assert!(
        hyb.offload.offloaded_bytes < off.offload.offloaded_bytes,
        "hybrid offloads less: {} vs {}",
        hyb.offload.offloaded_bytes,
        off.offload.offloaded_bytes
    );
    assert!(hyb.offload.offloaded_bytes > 0, "but still offloads");
    assert!(
        off.step_secs < hyb.step_secs && hyb.step_secs < rec.step_secs,
        "step times: offload {:.3} < hybrid {:.3} < recompute {:.3}",
        off.step_secs,
        hyb.step_secs,
        rec.step_secs
    );
    // Recomputed activations are kept in GPU memory by the cache
    // (Algorithm 2 line 15), not re-offloaded during backward.
    assert!(hyb.offload.kept > 0, "{:?}", hyb.offload);
}

#[test]
fn unfused_attention_offload_is_also_bit_identical() {
    // The pre-FlashAttention operator chain saves the S x S softmax
    // output; offloading those large probabilities must round-trip
    // exactly too (Section 4.3's selective-recompute discussion).
    let mk = |strategy: PlacementStrategy| -> Vec<f32> {
        let mut model = ModelConfig::tiny_gpt();
        model.fused_attention = false;
        let cfg = SessionConfig::builder()
            .model(model)
            .batch_size(2)
            .strategy(strategy)
            .cache(TensorCacheConfig {
                min_offload_numel: 0,
                adaptive: false,
                ..TensorCacheConfig::default()
            })
            .seed(31)
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        (0..3).map(|_| s.run_step().expect("step").loss).collect()
    };
    assert_eq!(mk(PlacementStrategy::Keep), mk(PlacementStrategy::Offload));
}
