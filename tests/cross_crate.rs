//! Cross-crate integration: the analytic models of `ssdtrain-analysis`
//! must agree with the functional/symbolic measurements of
//! `ssdtrain-train`, and the public API must compose end to end the way
//! the README shows.

use ssdtrain::{PlacementStrategy, TensorCacheConfig};
use ssdtrain_analysis::ActivationModel;
use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_simhw::SystemConfig;
use ssdtrain_train::{OffloadBackend, SessionConfig, TrainSession};

fn offload_session(arch: Arch, hidden: usize, layers: usize, batch: usize) -> TrainSession {
    let cfg = SessionConfig::builder()
        .model(ModelConfig::paper_scale(arch, hidden, layers).with_tp(2))
        .batch_size(batch)
        .symbolic(true)
        .seed(5)
        .build()
        .expect("valid config");
    TrainSession::new(cfg).expect("session")
}

#[test]
fn table4_model_estimate_matches_measured_offload() {
    // The paper validates its S_activations formula against the measured
    // offloaded amount (Table 4, "the figures are close"). Our closed
    // form must track the cache's actual traffic within 15% at all three
    // configurations.
    for (h, l) in [(8192usize, 4usize), (12288, 3), (16384, 2)] {
        let mut s = offload_session(Arch::Bert, h, l, 16);
        let (profile, _) = s.profile_step().expect("profile step");
        let measured = profile.fwd_io_bytes as f64;
        let estimate = ActivationModel::fp16(16, 1024, h, l, 2).step_total_bytes() as f64;
        let err = (estimate / measured - 1.0).abs();
        assert!(
            err < 0.15,
            "H{h} L{l}: measured {measured:.3e} vs estimate {estimate:.3e} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn required_bandwidth_model_tracks_the_simulated_step() {
    // Table 4's bandwidth column: measured offloaded bytes over half the
    // measured step time — and it must fall as hidden grows.
    let mut prev = f64::INFINITY;
    for (h, l) in [(8192usize, 4usize), (12288, 3), (16384, 2)] {
        let mut s = offload_session(Arch::Bert, h, l, 16);
        let (profile, _) = s.profile_step().expect("profile step");
        let m = s.run_step().expect("step");
        let bw = profile.fwd_io_bytes as f64 / (m.step_secs / 2.0);
        assert!(bw < prev, "H{h}: {bw:.2e} should fall below {prev:.2e}");
        prev = bw;
    }
    // The largest configuration fits comfortably within the testbed's
    // 24.4 GB/s array (the paper's full-overlap premise).
    assert!(prev < 24.4e9);
}

#[test]
fn whole_stack_numeric_smoke_for_all_architectures() {
    for arch in [Arch::Gpt, Arch::Bert, Arch::T5] {
        let cfg = SessionConfig::builder()
            .model(match arch {
                Arch::Gpt => ModelConfig::tiny_gpt(),
                Arch::Bert => ModelConfig::tiny_bert(),
                Arch::T5 => ModelConfig::tiny_t5(),
            })
            .batch_size(2)
            .cache(TensorCacheConfig::offload_everything())
            .seed(3)
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        let first = s.run_step().expect("step");
        let mut last = first.loss;
        for _ in 0..4 {
            last = s.run_step().expect("step").loss;
        }
        assert!(first.loss.is_finite() && last.is_finite(), "{arch}");
        assert!(first.offload.store_jobs > 0, "{arch} must offload");
    }
}

#[test]
fn adaptive_plan_respects_the_analysis_bandwidth_ordering() {
    // The profiling step's per-module required-bandwidth diagnostic must
    // be monotone for a homogeneous stack — the property the planner's
    // cutoff search relies on.
    let mut s = offload_session(Arch::Bert, 8192, 4, 16);
    let (_, plan) = s.profile_step().expect("profile step");
    let req = &plan.required_bps;
    assert!(req.len() >= 8, "one entry per module: {req:?}");
    for w in req.windows(2) {
        assert!(w[1] > w[0] * 0.7, "roughly increasing: {req:?}");
    }
    assert!(plan.last_offloaded.is_some());
}

#[test]
fn oom_detection_fires_when_keep_exceeds_device_memory() {
    // Keep strategy at batch 32 on H16384 L2 overflows a 40 GB A100 —
    // the situation offloading exists to avoid.
    let cfg = SessionConfig::builder()
        .model(ModelConfig::paper_scale(Arch::Bert, 16384, 2).with_tp(2))
        .batch_size(48)
        .strategy(PlacementStrategy::Keep)
        .symbolic(true)
        .seed(1)
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    let keep = s.run_step().expect("step");
    assert!(keep.oom, "keep at B48 H16384 must exceed 40 GB");

    let mut s = offload_session(Arch::Bert, 16384, 2, 48);
    let m = s.run_step().expect("step");
    assert!(
        m.total_peak_bytes < keep.total_peak_bytes,
        "offloading must lower the total peak"
    );
}

#[test]
fn a_warm_keep_step_counts_its_parameters_in_the_total_peak() {
    // The device holds the weights before the step opens; like
    // `torch.cuda.max_memory_allocated()` after `model.to(device)`, the
    // step's total peak counts them on top of its activation peak.
    let cfg = SessionConfig::builder()
        .model(ModelConfig::paper_scale(Arch::Bert, 4096, 2).with_tp(2))
        .batch_size(8)
        .strategy(PlacementStrategy::Keep)
        .symbolic(true)
        .seed(2)
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    let params: u64 = s
        .model()
        .parameters()
        .iter()
        .map(|p| p.tensor().bytes())
        .sum();
    s.run_step().expect("first step");
    let warm = s.run_step().expect("warm step");
    assert!(
        warm.total_peak_bytes >= params + warm.act_peak_bytes,
        "total peak {} B < {params} B of parameters + {} B activation peak",
        warm.total_peak_bytes,
        warm.act_peak_bytes
    );
}

#[test]
fn a_warm_step_reserves_at_least_its_total_peak() {
    // The caching allocator cannot hand out more than it reserved: the
    // replay starts from what the device held when the step opened
    // (parameters, kept state), so its reserved footprint covers the
    // step's total peak, kept or offloaded.
    let keep = SessionConfig::builder()
        .model(ModelConfig::paper_scale(Arch::Bert, 4096, 2).with_tp(2))
        .batch_size(8)
        .strategy(PlacementStrategy::Keep)
        .symbolic(true)
        .seed(2)
        .build()
        .expect("valid config");
    let sessions = [
        TrainSession::new(keep).expect("session"),
        offload_session(Arch::Bert, 4096, 2, 8),
    ];
    for mut s in sessions {
        s.run_step().expect("first step");
        let warm = s.run_step().expect("warm step");
        assert!(
            warm.alloc.reserved >= warm.total_peak_bytes,
            "reserved {} B < total peak {} B",
            warm.alloc.reserved,
            warm.total_peak_bytes
        );
    }
}

#[test]
fn cpu_offload_target_is_numerically_identical_too() {
    // The paper's CPU offloader (Figure 5) shares the tensor-cache logic;
    // only the target and bandwidths differ.
    let run = |backend: OffloadBackend| -> Vec<f32> {
        let cfg = SessionConfig::builder()
            .model(ModelConfig::tiny_gpt())
            .batch_size(2)
            .cache(TensorCacheConfig::offload_everything())
            .seed(17)
            .backend(backend)
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        (0..3).map(|_| s.run_step().expect("step").loss).collect()
    };
    assert_eq!(run(OffloadBackend::Ssd), run(OffloadBackend::Dram));
}

#[test]
fn cpu_pool_exhaustion_degrades_gracefully() {
    // Figure 2's argument: host memory cannot absorb paper-scale
    // activation volumes. Shrink the host pool and watch the CPU
    // offloader run out — the cache's default keep-resident recovery
    // must absorb the failures instead of panicking, and report them
    // through the step's offload counters.
    let mut system = SystemConfig::dac_testbed();
    system.host_mem_bytes = 64 << 20; // 64 MiB pinned pool
    let cfg = SessionConfig::builder()
        .system(system)
        .model(ModelConfig::paper_scale(Arch::Bert, 2048, 2).with_tp(2))
        .batch_size(8)
        .symbolic(true)
        .seed(1)
        .backend(OffloadBackend::Dram)
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    let m = s
        .run_step()
        .expect("keep-resident recovery absorbs the failure");
    assert!(m.degraded(), "exhausted pool should mark the step degraded");
    assert!(m.offload.store_failures > 0);
    assert!(m.offload.kept_resident_bytes > 0);
}

#[test]
fn fused_attention_removes_the_quadratic_activation_term() {
    // Section 4.3: with FlashAttention the S x S probabilities are never
    // materialised, which is why selective recomputation became moot.
    // Compare keep-strategy activation peaks with fused vs unfused
    // attention at a paper-like sequence length.
    let run = |fused: bool| -> u64 {
        // Long sequences, narrow hidden, small vocab: the S x S term
        // dominates everything else when materialised.
        let model = ModelConfig {
            arch: Arch::Bert,
            hidden: 512,
            layers: 2,
            heads: 4,
            vocab: 1024,
            seq: 2048,
            dropout_p: 0.1,
            fused_attention: fused,
            tp: 2,
        };
        let cfg = SessionConfig::builder()
            .model(model)
            .batch_size(8)
            .strategy(PlacementStrategy::Keep)
            .symbolic(true)
            .seed(2)
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        s.run_step().expect("step").act_peak_bytes
    };
    let fused = run(true);
    let unfused = run(false);
    // Unfused saves per layer ~ B*heads*S*S probabilities; at S=1024,
    // H=1024 (heads 8, tp 2 -> 4 local) that dwarfs the linear terms.
    assert!(
        unfused > 2 * fused,
        "unfused {unfused} should dwarf fused {fused}"
    );
}

#[test]
fn micro_batched_offloading_still_fully_overlaps() {
    // Figure 4's two-micro-batch timeline: records are kept per
    // micro-batch and switching between them (hint ③) must not expose
    // I/O.
    let cfg = SessionConfig::builder()
        .model(ModelConfig::paper_scale(Arch::Bert, 8192, 4).with_tp(2))
        .batch_size(16)
        .micro_batches(2)
        .symbolic(true)
        .seed(4)
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg).expect("session");
    let _ = s.profile_step().expect("profile step");
    let m = s.run_step().expect("step");
    assert!(
        m.offload.stall_secs < 0.01 * m.step_secs,
        "stall {:.4}s in {:.3}s",
        m.offload.stall_secs,
        m.step_secs
    );
    assert!(m.offload.offloaded_bytes > 0);
}

#[test]
fn wear_metering_matches_the_lifespan_formula() {
    // Run a measured step, then extrapolate its write traffic with the
    // testbed array's wear meter at WAF 1
    // (`t_life = S_endurance · t_step / S_activations`).
    let mut s = offload_session(Arch::Bert, 8192, 4, 16);
    let _ = s.profile_step().expect("profile step");
    let m = s.run_step().expect("step");
    assert!(m.ssd_host_writes > 0);
    let meter = SystemConfig::dac_testbed().ssd_array.wear_meter(1.0);
    let years = meter.projected_lifespan_years(m.ssd_host_writes, m.step_secs);
    // 4x P5800X sustaining ~12 GB of writes every ~1.4 s: around 4 years.
    assert!((1.0..20.0).contains(&years), "{years}");
}

#[test]
fn ssd_wear_accumulates_across_steps() {
    // The wear meter on the spill target integrates host writes over
    // steps — the quantity the lifespan projection divides endurance by.
    let mut s = offload_session(Arch::Bert, 8192, 4, 16);
    let _ = s.profile_step().expect("profile step");
    let w1 = s.run_step().expect("step").ssd_host_writes;
    let w2 = s.run_step().expect("step").ssd_host_writes;
    assert!(w1 > 0 && w2 > 0);
    // Per-step traffic is stable (same shapes, same plan).
    assert_eq!(w1, w2);
    // The target's cumulative wear covers the profile step plus both
    // measured steps.
    let tiers = s.cache().expect("offload").tiers();
    let target = tiers.device(tiers.tier_ids()[0]).expect("front tier");
    assert!(target.bytes_written() >= w1 + w2);
}

#[test]
fn gradient_accumulation_equals_full_batch() {
    // Data parallelism / gradient accumulation correctness: the mean
    // loss over a concatenated batch has gradients equal to the average
    // of the per-half gradients — so the trainer's micro-batch loop (and
    // a DP group's allreduce-mean) reproduces large-batch training
    // exactly.
    use ssdtrain_autograd::Graph;
    use ssdtrain_models::{Batch, Model, Recompute};
    use ssdtrain_tensor::{Device, Tensor};

    let dev = Device::cpu();
    let cfg = ModelConfig::tiny_gpt();
    let model = Model::build(&cfg, &dev, 9);

    let half = |seed: u64| Batch::synthetic(&cfg, 2, seed, &dev);
    let (b1, b2) = (half(100), half(101));

    // Concatenate the two half-batches by hand.
    let cat = |a: &Tensor, b: &Tensor| {
        let mut v = a.to_vec();
        v.extend(b.to_vec());
        Tensor::from_vec(v, [4, cfg.seq], &dev)
    };
    let full = Batch {
        tokens: cat(&b1.tokens, &b2.tokens),
        dec_tokens: None,
        targets: cat(&b1.targets, &b2.targets),
        batch: 4,
    };

    // Full-batch gradients.
    let g = Graph::new(&dev, 3);
    let loss_full = model.forward_loss(&g, &full, Recompute::None);
    g.backward(&loss_full);
    let want: Vec<Vec<f32>> = model
        .parameters()
        .iter()
        .map(|p| {
            let v = p.grad().expect("grad").to_vec();
            p.zero_grad();
            v
        })
        .collect();

    // Accumulated half-batch gradients, averaged.
    let mut half_losses = Vec::new();
    for b in [&b1, &b2] {
        let g = Graph::new(&dev, 3);
        let loss = model.forward_loss(&g, b, Recompute::None);
        half_losses.push(loss.tensor().item());
        g.backward(&loss);
    }
    for (p, want) in model.parameters().iter().zip(&want) {
        let got: Vec<f32> = p
            .grad()
            .expect("grad")
            .to_vec()
            .iter()
            .map(|x| x / 2.0)
            .collect();
        for (a, b) in got.iter().zip(want) {
            assert!((a - b).abs() < 1e-5, "{} vs {}", a, b);
        }
    }
    let mean_half = (half_losses[0] + half_losses[1]) / 2.0;
    assert!((loss_full.tensor().item() - mean_half).abs() < 1e-5);
}
