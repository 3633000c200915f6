//! Layer probes: each calls one layer's public function directly, warms
//! up, then reports the fastest of its timed repetitions. Inputs are
//! fixed (the numeric workloads' shapes, and the inputs of the old
//! `benches/core_structures.rs` cases); `workloads::run_probes` says
//! which workload's traced run each group follows.

use crate::hostcost::count_allocs;
use crate::metrics::Values;
use ssdtrain::adaptive::{AdaptivePlan, ModuleProfile, StepProfile};
use ssdtrain::{CpuTarget, IoEngine, OffloadClass, TierStack, WriteCoalescer};
use ssdtrain_autograd::optim::Sgd;
use ssdtrain_autograd::{Graph, Packed, SavedTensorHooks};
use ssdtrain_models::{Arch, Batch, Model, ModelConfig, Recompute};
use ssdtrain_simhw::{BufferArena, Channel, GpuMemory, SimClock, SimTime};
use ssdtrain_tensor::{Device, MemClass, MemTracker, Prng, Tensor};
use ssdtrain_train::PipelineSim;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The numeric workloads' model: GPT H128 L4 heads4 S64 V512, dropout
/// 0.1 (batch 4 at the call sites).
pub fn numeric_model() -> ModelConfig {
    ModelConfig {
        arch: Arch::Gpt,
        hidden: 128,
        layers: 4,
        heads: 4,
        vocab: 512,
        seq: 64,
        dropout_p: 0.1,
        fused_attention: true,
        tp: 1,
    }
}

/// Batch size of the numeric workloads.
pub const NUMERIC_BATCH: usize = 4;

/// Seconds of the fastest of `reps` timed runs of `f`, after
/// `reps / 5 + 1` untimed ones. Fastest, like every wall-clock figure of
/// this benchmark: the one statistic a busy neighbour does not move.
fn time_fastest<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..reps / 5 + 1 {
        black_box(f());
    }
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn randn(shape: impl Into<ssdtrain_tensor::Shape>, rng: &mut Prng, dev: &Device) -> Tensor {
    Tensor::randn(shape, 1.0, rng, dev)
}

/// `tensor.*` kernels at the numeric workloads' shapes.
pub fn kernels(v: &mut Values, reps: usize) {
    let dev = Device::cpu();
    let mut rng = Prng::seed_from_u64(1);
    let cfg = numeric_model();
    let rows = NUMERIC_BATCH * cfg.seq;
    let (h, heads, s, hd) = (cfg.hidden, cfg.heads, cfg.seq, cfg.head_dim());

    // The MLP up-projection: [batch·seq, H] × [H, 4H].
    let a = randn([rows, h], &mut rng, &dev);
    let w = randn([h, 4 * h], &mut rng, &dev);
    let secs = time_fastest(reps, || a.matmul(black_box(&w)));
    v.set(
        "tensor.matmul_gflops",
        2.0 * (rows * h * 4 * h) as f64 / secs / 1e9,
    );
    let (_, alloc) = count_allocs(|| black_box(a.matmul(&w)));
    v.set("tensor.alloc_mb_per_matmul", alloc.bytes as f64 / 1e6);

    // Attention scores: [batch·heads, S, hd] × [batch·heads, hd, S].
    let bh = NUMERIC_BATCH * heads;
    let q = randn([bh, s, hd], &mut rng, &dev);
    let k = randn([bh, hd, s], &mut rng, &dev);
    let secs = time_fastest(reps, || q.bmm(black_box(&k)));
    v.set(
        "tensor.bmm_gflops",
        2.0 * (bh * s * hd * s) as f64 / secs / 1e9,
    );

    let scores = randn([bh, s, s], &mut rng, &dev);
    v.set(
        "tensor.softmax_us",
        time_fastest(reps, || scores.softmax_last()) * 1e6,
    );
    let (gamma, beta) = (Tensor::ones([h], &dev), Tensor::zeros([h], &dev));
    v.set(
        "tensor.layernorm_us",
        time_fastest(reps, || a.layernorm(&gamma, &beta, 1e-5)) * 1e6,
    );
    let up = randn([rows, 4 * h], &mut rng, &dev);
    v.set("tensor.gelu_us", time_fastest(reps, || up.gelu()) * 1e6);
}

/// 1 MiB of F32 through the offload serialisation, both ways.
pub fn serialisation(v: &mut Values, reps: usize) {
    let dev = Device::cpu();
    let mut rng = Prng::seed_from_u64(1);
    let mib = randn([512, 512], &mut rng, &dev);
    let secs = time_fastest(reps, || mib.storage().to_bytes());
    v.set("tensor.to_bytes_mb_per_s", mib.bytes() as f64 / 1e6 / secs);
    let bytes = mib.storage().to_bytes().expect("numeric tensor has data");
    let secs = time_fastest(reps, || mib.storage().decode_bytes(black_box(&bytes)));
    v.set("tensor.decode_mb_per_s", mib.bytes() as f64 / 1e6 / secs);
}

/// Identity hooks that count what the tape saves.
#[derive(Default)]
struct CountingKeep {
    packs: AtomicU64,
}

impl SavedTensorHooks for CountingKeep {
    fn pack(&self, tensor: &Tensor) -> Packed {
        self.packs.fetch_add(1, Ordering::Relaxed);
        Packed::Tensor(tensor.clone())
    }

    fn unpack(&self, packed: &Packed) -> Tensor {
        match packed {
            Packed::Tensor(t) => t.clone(),
            Packed::Opaque(id) => unreachable!("identity hooks never return an opaque id ({id})"),
        }
    }
}

/// `pack` calls one forward pass of `cfg` makes (what the tape saves).
pub fn saved_per_step(cfg: &ModelConfig, batch: usize, dev: &Device) -> u64 {
    let model = Model::build(cfg, dev, 7);
    let batch = Batch::synthetic(cfg, batch, 7, dev);
    let hooks = Arc::new(CountingKeep::default());
    let g = Graph::new(dev, 7);
    g.set_saved_tensor_hooks(hooks.clone());
    black_box(model.forward_loss(&g, &batch, Recompute::None));
    hooks.packs.load(Ordering::Relaxed)
}

/// Forward and backward of the numeric model on a bare graph.
pub fn autograd(v: &mut Values, reps: usize) {
    let dev = Device::cpu();
    let cfg = numeric_model();
    let model = Model::build(&cfg, &dev, 7);
    let optimizer = Sgd::new(model.parameters(), 0.05);
    let batch = Batch::synthetic(&cfg, NUMERIC_BATCH, 7, &dev);
    let (mut fwd, mut bwd) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for rep in 0..reps + 1 {
        // A bare graph: no hooks installed, no observer, no cache.
        let g = Graph::new(&dev, 7);
        let t0 = Instant::now();
        let loss = model.forward_loss(&g, &batch, Recompute::None);
        let t1 = Instant::now();
        g.backward(&loss);
        g.reset_tape();
        let t2 = Instant::now();
        optimizer.zero_grad();
        if rep > 0 {
            fwd.push((t1 - t0).as_secs_f64());
            bwd.push((t2 - t1).as_secs_f64());
        }
    }
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    v.set("autograd.fwd_ms", fastest(&fwd) * 1e3);
    v.set("autograd.bwd_ms", fastest(&bwd) * 1e3);
}

/// `IoEngine` queue operations and the write coalescer.
pub fn store_path(v: &mut Values, reps: usize) {
    const JOBS: usize = 1000;
    let submit = time_fastest(reps, || {
        let io = IoEngine::new(SimClock::new(), 1e9, 1e9);
        for _ in 0..JOBS {
            black_box(io.submit_store(1 << 20));
        }
    });
    v.set("io.submit_store_ns", submit * 1e9 / JOBS as f64);
    // Forwarding's worst case: every queued store cancelled, newest
    // first, each cancel reflowing what is still queued behind it.
    let both = time_fastest(reps, || {
        let io = IoEngine::new(SimClock::new(), 1e9, 1e9);
        let jobs: Vec<_> = (0..JOBS).map(|_| io.submit_store(1 << 20)).collect();
        for j in jobs.into_iter().rev() {
            black_box(io.try_cancel_store(j, SimTime::ZERO));
        }
    });
    v.set(
        "io.cancel_reflow_us",
        (both - submit).max(0.0) * 1e6 / JOBS as f64,
    );

    let tier = TierStack::single(Arc::new(CpuTarget::new(1 << 30))).tier_ids()[0];
    let secs = time_fastest(reps, || {
        let mut c = WriteCoalescer::new(8 << 20);
        for id in 0..JOBS as u64 {
            black_box(c.stage(tier, id, 64 << 10, OffloadClass::Activation));
        }
        black_box(c.seal_all())
    });
    v.set("coalesce.stage_seal_ns", secs * 1e9 / JOBS as f64);
}

/// Memory timeline, channel and pinned-buffer arena.
pub fn simhw(v: &mut Values, reps: usize) {
    let clock = SimClock::new();
    let mem = GpuMemory::new(clock.clone(), 1 << 40);
    for _ in 0..5000 {
        clock.advance_by(1e-6);
        mem.on_alloc(4096, MemClass::Activation);
        mem.on_free(1024, MemClass::Activation);
    }
    v.set(
        "simhw.peak_query_us",
        time_fastest(reps, || mem.peak_activations()) * 1e6,
    );

    const SUBMITS: u64 = 10_000;
    let secs = time_fastest(reps, || {
        let ch = Channel::new("probe", 1e9);
        for i in 0..SUBMITS {
            black_box(ch.submit(SimTime::from_secs(i as f64 * 1e-6), 4096));
        }
    });
    v.set("simhw.channel_submit_ns", secs * 1e9 / SUBMITS as f64);

    const CYCLES: u64 = 1000;
    let arena = BufferArena::new();
    let secs = time_fastest(reps, || {
        for _ in 0..CYCLES {
            let slab = arena.acquire(1 << 20).expect("non-zero request");
            black_box(arena.release(slab));
        }
    });
    v.set("simhw.arena_cycle_ns", secs * 1e9 / CYCLES as f64);
}

/// The adaptive planner and the pipeline schedule simulator.
pub fn planner(v: &mut Values, reps: usize) {
    let profile = StepProfile {
        modules: (0..64)
            .map(|i| ModuleProfile {
                path: format!("layer{}/{}", i / 2, if i % 2 == 0 { "attn" } else { "mlp" }),
                offload_bytes: 1 << 30,
                fwd_secs: 0.05,
                store_secs: 0.04,
                load_secs: 0.04,
            })
            .collect(),
        fwd_total_secs: 3.2,
        fwd_io_bytes: 64 << 30,
        fwd_io_secs: 2.8,
    };
    v.set(
        "adaptive.decide_ns",
        time_fastest(reps, || {
            AdaptivePlan::decide(black_box(&profile), 24.4e9, 2.0)
        }) * 1e9,
    );

    let sim = PipelineSim {
        pp: 8,
        micro_batches: 64,
        fwd_secs: 0.02,
        bwd_secs: 0.04,
        act_bytes_per_mb: 1 << 30,
        offload_resident_bytes: 1 << 28,
        send_secs: 0.001,
    };
    v.set(
        "train.pipeline_sim_us",
        time_fastest(reps, || sim.run()) * 1e6,
    );
}
