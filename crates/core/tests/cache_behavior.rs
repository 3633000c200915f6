//! End-to-end behaviour of the tensor cache on real autograd graphs:
//! numerics equivalence, memory reclaim, forwarding, deduplication,
//! parameter exclusion, stall accounting and adaptive profiling.

use ssdtrain::{
    AdaptivePlan, CpuTarget, IoEngine, OffloadClass, OffloadTarget, SsdTarget, StepProfile,
    TensorCache, TensorCacheConfig, Tier, TierLink, TierStack, TraceEvent, TraceSink,
};
use ssdtrain_autograd::{
    ops, ExecObserver, Graph, ModuleHooks, OpCost, Packed, Phase, SavedTensorHooks, ScopeInfo, Var,
};
use ssdtrain_simhw::{GpuMemory, SimClock, SimTime, WearMeter};
use ssdtrain_tensor::{DType, Device, MemClass, Prng, Tensor};
use std::sync::Arc;

/// Advances the simulated clock by a fixed duration per operator, so
/// store/load jobs overlap with "compute" deterministically.
struct FixedOpTime {
    clock: SimClock,
    secs_per_op: f64,
}

impl ExecObserver for FixedOpTime {
    fn on_op(&self, _name: &str, _cost: &OpCost, _phase: Phase) {
        self.clock.advance_by(self.secs_per_op);
    }
}

struct Rig {
    dev: Device,
    graph: Graph,
    cache: Arc<TensorCache>,
    mem: Arc<GpuMemory>,
    /// Kept alive so tests can advance simulated time explicitly.
    #[allow(dead_code)]
    clock: SimClock,
}

fn rig(config: TensorCacheConfig, write_bps: f64, read_bps: f64, secs_per_op: f64) -> Rig {
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    let io = IoEngine::new(clock.clone(), write_bps, read_bps);
    let target = Arc::new(CpuTarget::new(1 << 40));
    let cache =
        TensorCache::with_tiers(config, Arc::new(TierStack::single(target)), io, mem.clone());
    let graph = Graph::new(&dev, 7);
    cache.install(&graph);
    graph.set_observer(Arc::new(FixedOpTime {
        clock: clock.clone(),
        secs_per_op,
    }));
    Rig {
        dev,
        graph,
        cache,
        mem,
        clock,
    }
}

/// A two-module MLP forward pass under module scopes; returns the loss.
fn two_layer_forward(g: &Graph, x: &Tensor, w1: &Var, w2: &Var) -> ssdtrain_autograd::Value {
    let xv = g.constant(x.clone());
    let h1 = g.scoped("l0", || {
        let h = ops::matmul(g, &xv, &g.leaf(w1));
        ops::gelu(g, &h)
    });
    let h2 = g.scoped("l1", || {
        let h = ops::matmul(g, &h1, &g.leaf(w2));
        ops::gelu(g, &h)
    });
    ops::mean_all(g, &h2)
}

fn offload_all_config() -> TensorCacheConfig {
    TensorCacheConfig {
        min_offload_numel: 0,
        adaptive: false,
        ..TensorCacheConfig::default()
    }
}

fn run_step(r: &Rig, x: &Tensor, w1: &Var, w2: &Var) -> f32 {
    r.cache.begin_step();
    r.graph.reset_tape();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());
    let loss = two_layer_forward(&r.graph, x, w1, w2);
    r.cache.prefetch_last_module();
    let l = loss.tensor().item();
    r.graph.backward(&loss);
    r.cache.wait_io();
    l
}

fn sgd_step(vars: &[&Var], lr: f32) {
    for v in vars {
        if let Some(g) = v.grad() {
            let next = v.tensor().zip_with(&g, |w, g| w - g * lr);
            v.set_tensor(next.deep_clone_as(MemClass::Parameter));
            v.zero_grad();
        }
    }
}

fn init_weights(dev: &Device, seed: u64) -> (Tensor, Tensor, Tensor) {
    let mut rng = Prng::seed_from_u64(seed);
    let (w1, w2) = dev.with_class(MemClass::Parameter, || {
        (
            Tensor::randn([8, 8], 0.4, &mut rng, dev),
            Tensor::randn([8, 8], 0.4, &mut rng, dev),
        )
    });
    let x = Tensor::randn([4, 8], 1.0, &mut rng, dev);
    (w1, w2, x)
}

// ---------------------------------------------------------------------
// Numerics
// ---------------------------------------------------------------------

#[test]
fn offloaded_training_is_bit_identical_to_keep() {
    // Reference run: plain graph, no cache.
    let dev_ref = Device::cpu();
    let (w1t, w2t, xt) = init_weights(&dev_ref, 21);
    let w1_ref = Var::new("w1", w1t.clone());
    let w2_ref = Var::new("w2", w2t.clone());
    let mut ref_losses = Vec::new();
    for _ in 0..3 {
        let g = Graph::new(&dev_ref, 7);
        let loss = two_layer_forward(&g, &xt, &w1_ref, &w2_ref);
        ref_losses.push(loss.tensor().item());
        g.backward(&loss);
        sgd_step(&[&w1_ref, &w2_ref], 0.1);
    }

    // Offloaded run on the cache rig (slow enough that real reloads
    // happen, fast ops so stores finish before backward).
    let r = rig(offload_all_config(), 1e6, 1e6, 1.0);
    let w1 = Var::new("w1", w1t.deep_clone_as(MemClass::Parameter));
    let w2 = Var::new("w2", w2t.deep_clone_as(MemClass::Parameter));
    // Recreate x on the tracked device for identical values.
    let x = Tensor::from_vec(xt.to_vec(), [4, 8], &r.dev);
    let mut off_losses = Vec::new();
    for _ in 0..3 {
        off_losses.push(run_step(&r, &x, &w1, &w2));
        sgd_step(&[&w1, &w2], 0.1);
    }

    assert_eq!(ref_losses, off_losses, "losses must match bit-for-bit");
    assert_eq!(w1_ref.tensor().to_vec(), w1.tensor().to_vec());
    assert_eq!(w2_ref.tensor().to_vec(), w2.tensor().to_vec());
    // And the run actually exercised the offload path.
    let stats = r.cache.stats();
    assert!(stats.store_jobs > 0, "{stats:?}");
    assert!(
        stats.sync_loads + stats.prefetches + stats.forwarded > 0,
        "{stats:?}"
    );
}

// ---------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------

#[test]
fn offloading_reduces_activation_peak() {
    // Keep run (hooks installed but nothing offloads: threshold huge).
    let keep_cfg = TensorCacheConfig {
        min_offload_numel: usize::MAX,
        ..TensorCacheConfig::default()
    };
    let rk = rig(keep_cfg, 1e9, 1e9, 0.001);
    let (w1t, w2t, xt) = init_weights(&rk.dev, 5);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&rk, &xt, &w1, &w2);
    let keep_peak = rk.mem.peak_activations();

    // Offload run with ample bandwidth: stores commit quickly.
    let ro = rig(offload_all_config(), 1e12, 1e12, 0.001);
    let (w1t, w2t, xt) = init_weights(&ro.dev, 5);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&ro, &xt, &w1, &w2);
    let off_peak = ro.mem.peak_activations();

    assert!(
        off_peak < keep_peak,
        "offload peak {off_peak} must be below keep peak {keep_peak}"
    );
}

#[test]
fn all_records_released_after_step() {
    let r = rig(offload_all_config(), 1e9, 1e9, 0.001);
    let (w1t, w2t, xt) = init_weights(&r.dev, 9);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&r, &xt, &w1, &w2);
    r.graph.reset_tape();
    r.cache.flush();
    // The step input is still held by this test (like a dataloader
    // buffer); everything else must be gone.
    assert_eq!(r.mem.resident(MemClass::Activation), xt.bytes());
    drop(xt);
    assert_eq!(r.mem.resident(MemClass::Activation), 0);
}

// ---------------------------------------------------------------------
// Forwarding and cancellation
// ---------------------------------------------------------------------

#[test]
fn slow_stores_are_forwarded_and_queued_ones_cancelled() {
    // Glacial write bandwidth: every store is still in flight when
    // backward needs the tensor -> forwarding; queued stores cancel.
    let r = rig(offload_all_config(), 1.0, 1.0, 1e-6);
    let (w1t, w2t, xt) = init_weights(&r.dev, 13);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    let loss = run_step(&r, &xt, &w1, &w2);
    assert!(loss.is_finite());
    let stats = r.cache.stats();
    assert!(stats.forwarded > 0, "{stats:?}");
    assert!(stats.cancelled_stores > 0, "{stats:?}");
    // Forwarding means no reload traffic for those tensors and no stall.
    assert_eq!(stats.sync_loads + stats.prefetches, 0, "{stats:?}");
    assert!(w1.grad().is_some() && w2.grad().is_some());
}

#[test]
fn forwarding_disabled_exposes_store_latency() {
    let cfg = TensorCacheConfig {
        forwarding: false,
        cancel_forwarded_stores: false,
        prefetch_depth: 0,
        ..offload_all_config()
    };
    let r = rig(cfg, 100.0, 100.0, 1e-6);
    let (w1t, w2t, xt) = init_weights(&r.dev, 17);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&r, &xt, &w1, &w2);
    let stats = r.cache.stats();
    assert!(stats.stall_secs > 0.0, "{stats:?}");
    assert_eq!(stats.forwarded, 0);
    assert!(stats.sync_loads > 0, "{stats:?}");
}

#[test]
fn a_per_tensor_store_is_a_segment_of_one() {
    // `coalesce_segment_bytes = 0` seals every record on its own without
    // the coalescer; `= 1` seals every record on its own *through* it.
    // Both must be the same cache: a glacial link makes backward forward
    // and cancel the stores, a fast one makes it commit and reload them.
    for (bps, secs_per_op) in [(1.0, 1e-6), (1e6, 1.0)] {
        let run = |segment_bytes: u64| {
            let cfg = TensorCacheConfig {
                coalesce_segment_bytes: segment_bytes,
                ..offload_all_config()
            };
            let r = rig(cfg, bps, bps, secs_per_op);
            let (w1t, w2t, xt) = init_weights(&r.dev, 61);
            let (w1, w2) = (Var::new("w1", w1t), Var::new("w2", w2t));
            let loss = run_step(&r, &xt, &w1, &w2);
            r.graph.reset_tape();
            r.cache.flush();
            let mut stats = r.cache.stats();
            // The `coalesce_*` counters describe the coalescer, which
            // only one of the two runs uses.
            let sealed = std::mem::take(&mut stats.coalesce_segments);
            stats.coalesced_bytes = 0;
            let observed = (
                loss.to_bits(),
                r.clock.now().as_secs().to_bits(),
                r.mem.step_memory().peak_total,
                r.mem.peak_activations(),
                stats,
            );
            (observed, sealed)
        };
        let (per_tensor, unsealed) = run(0);
        let (segmented, sealed) = run(1);
        assert_eq!(unsealed, 0, "threshold 0 bypasses the coalescer");
        assert!(sealed > 0, "threshold 1 seals through the coalescer");
        assert_eq!(per_tensor, segmented, "write bandwidth {bps}");
        let stats = &per_tensor.4;
        if bps < 10.0 {
            assert!(
                stats.forwarded > 0 && stats.cancelled_stores > 0,
                "{stats:?}"
            );
        } else {
            assert!(stats.sync_loads + stats.prefetches > 0, "{stats:?}");
            assert!(stats.tiers[0].stores > 0, "{stats:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Deduplication and parameter exclusion
// ---------------------------------------------------------------------

#[test]
fn duplicate_saves_deduplicate_to_one_store() {
    let r = rig(offload_all_config(), 1e9, 1e9, 0.0);
    let x = Tensor::from_vec(vec![1.0; 64], [8, 8], &r.dev);
    r.cache.begin_step();
    r.graph.set_phase(Phase::Forward);
    let xv = r.graph.constant(x);
    // `mul` saves both inputs; using the same value twice saves the same
    // tensor identity twice.
    let y = r.graph.scoped("m", || ops::mul(&r.graph, &xv, &xv));
    let loss = ops::sum_all(&r.graph, &y);
    let stats_before = r.cache.stats();
    assert_eq!(stats_before.store_jobs, 1, "{stats_before:?}");
    assert_eq!(stats_before.dedup_hits, 1, "{stats_before:?}");
    r.graph.backward(&loss);
}

#[test]
fn dedup_disabled_stores_twice() {
    let cfg = TensorCacheConfig {
        dedup: false,
        ..offload_all_config()
    };
    let r = rig(cfg, 1e9, 1e9, 0.0);
    let x = Tensor::from_vec(vec![1.0; 64], [8, 8], &r.dev);
    r.cache.begin_step();
    r.graph.set_phase(Phase::Forward);
    let xv = r.graph.constant(x);
    let y = r.graph.scoped("m", || ops::mul(&r.graph, &xv, &xv));
    let _loss = ops::sum_all(&r.graph, &y);
    assert_eq!(r.cache.stats().store_jobs, 2);
    let _ = y;
}

#[test]
fn parameters_and_their_transposes_are_never_offloaded() {
    let r = rig(offload_all_config(), 1e9, 1e9, 0.0);
    let (w1t, _w2t, xt) = init_weights(&r.dev, 23);
    let w1 = Var::new("w1", w1t);
    r.cache.begin_step();
    r.cache.register_parameter(&w1.tensor());
    r.graph.set_phase(Phase::Forward);
    let xv = r.graph.constant(xt);
    // matmul saves x and w; w must be excluded, x offloaded.
    let y = r
        .graph
        .scoped("m", || ops::matmul(&r.graph, &xv, &r.graph.leaf(&w1)));
    let loss = ops::mean_all(&r.graph, &y);
    let stats = r.cache.stats();
    assert_eq!(stats.store_jobs, 1, "only the input offloads: {stats:?}");
    assert_eq!(stats.kept, 0, "a parameter was never a candidate");
    r.graph.backward(&loss);
    assert!(w1.grad().is_some());
}

// ---------------------------------------------------------------------
// Small-tensor threshold and backward-phase saves
// ---------------------------------------------------------------------

#[test]
fn small_tensors_stay_resident() {
    // Default threshold is 2^20 elements; a 64-element tensor stays.
    let r = rig(TensorCacheConfig::default(), 1e9, 1e9, 0.0);
    let (w1t, w2t, xt) = init_weights(&r.dev, 29);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&r, &xt, &w1, &w2);
    let stats = r.cache.stats();
    assert_eq!(stats.store_jobs, 0, "{stats:?}");
    assert_eq!(stats.offloaded_bytes, 0);
    assert_eq!(stats.kept, 0, "a small tensor was never a candidate");
}

#[test]
fn backward_phase_saves_stay_resident_and_count_as_kept() {
    // Algorithm 2 line 15: a tensor saved inside backward (a recompute)
    // would be needed again at once; offloading it would thrash.
    let r = rig(offload_all_config(), 1e9, 1e9, 0.0);
    let (w1t, _w2t, xt) = init_weights(&r.dev, 53);
    let w1 = Var::new("w1", w1t);
    r.cache.begin_step();
    r.cache.register_parameter(&w1.tensor());
    r.graph.set_phase(Phase::Recompute);
    let xv = r.graph.constant(xt);
    // matmul saves x and w: the parameter keep comes first and is not
    // counted, the backward-phase keep of x is.
    let _y = ops::matmul(&r.graph, &xv, &r.graph.leaf(&w1));
    let stats = r.cache.stats();
    assert_eq!((stats.store_jobs, stats.kept), (0, 1), "{stats:?}");

    // The threshold comes before the phase too: below it, nothing counts.
    let small = rig(TensorCacheConfig::default(), 1e9, 1e9, 0.0);
    small.cache.begin_step();
    small.graph.set_phase(Phase::Backward);
    let xv = small
        .graph
        .constant(Tensor::from_vec(vec![1.0; 64], [8, 8], &small.dev));
    let _y = ops::mul(&small.graph, &xv, &xv);
    let stats = small.cache.stats();
    assert_eq!((stats.store_jobs, stats.kept), (0, 0), "{stats:?}");
}

#[test]
fn state_classes_skip_both_activation_keeps() {
    // Gradients and optimizer state live by the optimizer schedule, not
    // the autograd phase: neither the kept module around them nor the
    // backward phase holds them back. The parameter and threshold keeps
    // still apply, and no state keep is counted.
    let cfg = TensorCacheConfig {
        min_offload_numel: 16,
        ..offload_all_config()
    };
    let r = rig(cfg, 1e9, 1e9, 0.0);
    let state = |v: f32| Tensor::from_vec(vec![v; 64], [8, 8], &r.dev);
    let mut plan = AdaptivePlan::default();
    plan.keep_paths.insert("m".into());
    r.cache.begin_step();
    r.cache.set_plan(plan);
    r.graph.set_phase(Phase::Forward);
    let xv = r.graph.constant(state(1.0));
    let grad = r.graph.scoped("m", || {
        // The plan keeps the module's own activations …
        let _y = ops::mul(&r.graph, &xv, &xv);
        assert_eq!(r.cache.stats().kept, 2);
        // … and a state tensor offloaded from inside it all the same.
        r.cache.offload_state(&state(0.25), OffloadClass::Gradient)
    });
    r.graph.set_phase(Phase::Backward);
    let velocity = r
        .cache
        .offload_state(&state(0.5), OffloadClass::OptimizerState);
    assert!(grad.is_some() && velocity.is_some());

    let param = state(2.0);
    r.cache.register_parameter(&param);
    assert!(r
        .cache
        .offload_state(&param, OffloadClass::Gradient)
        .is_none());
    let tiny = Tensor::from_vec(vec![0.0; 8], [8], &r.dev);
    assert!(r
        .cache
        .offload_state(&tiny, OffloadClass::OptimizerState)
        .is_none());
    let stats = r.cache.stats();
    assert_eq!((stats.store_jobs, stats.kept), (2, 2), "{stats:?}");
}

// ---------------------------------------------------------------------
// Profiling and the adaptive plan
// ---------------------------------------------------------------------

#[test]
fn profiling_step_builds_module_profile_and_plan() {
    let r = rig(
        TensorCacheConfig {
            min_offload_numel: 0,
            ..TensorCacheConfig::default()
        },
        1e9,
        1e9,
        0.001,
    );
    let (w1t, w2t, xt) = init_weights(&r.dev, 31);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    r.cache.begin_profile_step();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());
    let loss = two_layer_forward(&r.graph, &xt, &w1, &w2);
    let (profile, plan) = r.cache.end_profile_step();
    r.graph.backward(&loss);

    assert_eq!(profile.modules.len(), 2);
    assert_eq!(profile.modules[0].path, "l0");
    assert_eq!(profile.modules[1].path, "l1");
    assert!(profile.modules.iter().all(|m| m.offload_bytes > 0));
    assert!(profile.modules.iter().all(|m| m.fwd_secs > 0.0));
    assert!(profile.fwd_total_secs > 0.0);
    // Ample bandwidth: the plan keeps (at least) the last module.
    assert!(plan.keeps("l1"));
    assert!(!plan.keeps("l0"));
}

#[test]
fn the_cutoff_is_budgeted_on_the_shared_bus() {
    // Two 100 kB/s tiers behind a 30 kB/s bus, the front one holding two
    // modules' worth. Forward's stores get the bus's 30 kB/s, which is
    // the budget: a cutoff that the 200 kB/s link sum would carry is
    // kept. The profile ends at the forward/backward boundary, so every
    // module's deadline is forward's end.
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    let links = vec![
        TierLink::new("dram", 1e5, 1e9),
        TierLink::new("ssd", 1e5, 1e9),
    ];
    let io = IoEngine::tiered_with_bus(clock.clone(), links, 3e4);
    let tiers = TierStack::new(vec![
        Tier::new("dram", Arc::new(CpuTarget::new(1 << 40)), 0).with_capacity(512),
        Tier::new("ssd", Arc::new(CpuTarget::new(1 << 40)), 1),
    ]);
    let cfg = TensorCacheConfig::offload_everything();
    let cache = TensorCache::with_tiers(cfg, Arc::new(tiers), io, mem);
    let graph = Graph::new(&dev, 7);
    cache.install(&graph);
    let secs_per_op = 0.001;
    graph.set_observer(Arc::new(FixedOpTime { clock, secs_per_op }));

    let (w1t, w2t, xt) = init_weights(&dev, 59);
    let (w1, w2) = (Var::new("w1", w1t), Var::new("w2", w2t));
    cache.begin_profile_step();
    graph.set_phase(Phase::Forward);
    cache.register_parameter(&w1.tensor());
    cache.register_parameter(&w2.tensor());
    let mut h = graph.constant(xt);
    for (i, w) in [&w1, &w2, &w1, &w2].into_iter().enumerate() {
        h = graph.scoped(&format!("l{i}"), || {
            ops::gelu(&graph, &ops::matmul(&graph, &h, &graph.leaf(w)))
        });
    }
    let loss = ops::mean_all(&graph, &h);
    let (profile, plan) = cache.end_profile_step();
    graph.backward(&loss);

    let tiers = cache.stats().tiers;
    assert!(
        tiers[0].stores > 0 && tiers[1].spilled_in_bytes > 0,
        "both tiers take bytes"
    );
    let bus = profile.fwd_io_bytes as f64 / profile.fwd_io_secs;
    assert!((bus - 3e4).abs() < 1e-6, "forward got the bus: {bus}");
    let mut data = 0;
    for (m, module) in profile.modules.iter().enumerate() {
        data += module.offload_bytes;
        let forward_alone = (data + module.offload_bytes) as f64 / profile.fwd_total_secs;
        assert_eq!(plan.required_bps[m], forward_alone, "module {m}");
    }
    let io = cache.io();
    let link_sum = io.write_bps_of(0) + io.write_bps_of(1);
    let candidates = &plan.required_bps[..profile.modules.len() - 1];
    let between = candidates
        .iter()
        .rposition(|&r| bus < r && r <= link_sum)
        .expect("a cutoff the links would carry and the bus would not");
    assert!(
        plan.last_offloaded < Some(between),
        "{:?} at {bus}",
        plan.required_bps
    );
    assert!(plan.keeps(&profile.modules[between].path));
    assert!(
        plan.keep_paths.len() > profile.modules.len() - 1 - between,
        "bus budget keeps {:?}, the link sum only the modules after {between}",
        plan.keep_paths
    );
}

#[test]
fn kept_modules_do_not_offload_after_planning() {
    let r = rig(
        TensorCacheConfig {
            min_offload_numel: 0,
            ..TensorCacheConfig::default()
        },
        1e9,
        1e9,
        0.001,
    );
    let (w1t, w2t, xt) = init_weights(&r.dev, 37);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    // Profile step.
    r.cache.begin_profile_step();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());
    let loss = two_layer_forward(&r.graph, &xt, &w1, &w2);
    let _ = r.cache.end_profile_step();
    r.graph.backward(&loss);
    r.graph.reset_tape();

    // Planned step: module l1 is kept, so only l0's two tensors store.
    let profile_jobs = {
        run_step(&r, &xt, &w1, &w2);
        r.cache.stats()
    };
    assert!(profile_jobs.kept > 0, "{profile_jobs:?}");
    assert_eq!(profile_jobs.store_jobs, 2, "{profile_jobs:?}");
}

/// What a profiling step through the hook protocol hands back once its
/// backward is over.
struct Profiled {
    cache: Arc<TensorCache>,
    profile: StepProfile,
    plan: AdaptivePlan,
}

/// A profiling step driven through the hook protocol on a write link
/// that moves 1 MiB in 10 ms: per-tensor stores and the per-module
/// prefetcher two deep.
///
/// Module `a` saves 1 MiB at 0 ms (its store lands at 10 ms) and 1 MiB
/// at 12 ms (stored 12–22 ms); `b` saves 1 MiB at 13 ms (queued for
/// 22–32 ms) and `c` 1 MiB at 14 ms. Backward is announced at 15 ms, so
/// it reloads `a`'s first tensor and forwards the rest. Each module's
/// backward then computes for 30 ms, so backward reaches `b` at 45 ms
/// and `a` at 75 ms: at the 100 MiB/s forward's stores got, the cutoff
/// offloads every module but the last (`b` needs its 4 MiB moved by
/// 45 ms). With `state`, a 1 MiB optimizer-state slot is also stored
/// inside `c`'s scope, and backward reads it back first.
fn profiled_step(state: bool) -> Profiled {
    profiled_step_with(state, TensorCacheConfig::default().bwd_fwd_ratio)
}

/// [`profiled_step`] under a configured `bwd_fwd_ratio`.
fn profiled_step_with(state: bool, bwd_fwd_ratio: f64) -> Profiled {
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    let io = IoEngine::new(clock.clone(), MIB as f64 * 100.0, MIB as f64 * 1e3);
    let config = TensorCacheConfig {
        min_offload_numel: 0,
        prefetch_depth: 2,
        bwd_fwd_ratio,
        ..TensorCacheConfig::default()
    };
    let cache = TensorCache::with_tiers(
        config,
        Arc::new(TierStack::single(Arc::new(CpuTarget::new(1 << 40)))),
        io,
        mem,
    );
    let scope = |path: &str, seq: u64| ScopeInfo {
        path: path.into(),
        seq,
        micro_batch: 0,
    };
    let scopes = [scope("a", 1), scope("b", 2), scope("c", 3)];
    let mib = || Tensor::zeros([MIB as usize / 4], &dev);
    // Off the tracked device: only activations set the memory level.
    let state_tensor = Tensor::zeros([MIB as usize / 4], &Device::cpu());
    let mut slot = None;
    cache.begin_profile_step();
    cache.phase_changed(Phase::Forward);
    let mut saved: Vec<Vec<Packed>> = Vec::new();
    for (i, s) in scopes.iter().enumerate() {
        cache.forward_pre(s);
        let mut packed = vec![cache.pack(&mib())];
        if i == 0 {
            clock.advance_by(12e-3);
            packed.push(cache.pack(&mib()));
        }
        if i == 2 && state {
            slot = cache.offload_state(&state_tensor, OffloadClass::OptimizerState);
        }
        clock.advance_by(1e-3);
        saved.push(packed);
        cache.forward_post(s);
    }
    cache.prefetch_last_module();
    cache.phase_changed(Phase::Backward);
    if let Some(slot) = slot {
        cache.load_state(slot).expect("an offloaded slot");
    }
    for (s, packed) in scopes.iter().zip(saved).rev() {
        cache.backward_pre(s);
        for p in packed.iter().rev() {
            drop(cache.unpack(p));
        }
        clock.advance_by(30e-3);
        cache.backward_post(s);
    }
    cache.wait_io();
    cache.drain_stores();
    let (profile, plan) = cache.end_profile_step();
    if let Some(slot) = slot {
        cache.release_state(slot);
    }
    Profiled {
        cache,
        profile,
        plan,
    }
}

#[test]
fn a_module_the_profiling_backward_forwarded_whole_is_kept() {
    let p = profiled_step(false);
    let paths: Vec<&str> = p.profile.modules.iter().map(|m| m.path.as_str()).collect();
    assert_eq!(paths, ["a", "b", "c"]);
    // The cutoff alone offloads `b`; the plan keeps it, because backward
    // took every byte of it back from GPU memory.
    assert_eq!(p.plan.last_offloaded, Some(1));
    assert!(p.plan.keeps("b"), "{:?}", p.plan.keep_paths);
    assert!(p.plan.keeps("c"), "the final module");
    let stats = p.cache.stats();
    assert_eq!((stats.forwarded, stats.prefetches), (3, 1), "{stats:?}");
    assert_eq!(
        p.plan,
        p.cache.plan(),
        "the plan returned is the one applied"
    );
}

#[test]
fn the_cache_plan_ignores_bwd_fwd_ratio() {
    // The profiling backward measured when it reached each module, so
    // no assumed backward-to-forward ratio reaches the plan.
    let (fast, slow) = (
        profiled_step_with(false, 0.5),
        profiled_step_with(false, 100.0),
    );
    assert_eq!(fast.plan, slow.plan);
    assert_eq!(fast.plan.last_offloaded, Some(1), "{:?}", fast.plan);
}

#[test]
fn a_module_with_one_landed_record_is_left_to_the_cutoff() {
    // `a`'s second tensor was forwarded too, but its first store landed
    // and backward read it back from the tier: "all", not "any".
    let p = profiled_step(false);
    assert!(!p.plan.keeps("a"), "{:?}", p.plan.keep_paths);
    assert_eq!(p.cache.stats().reloaded_bytes, MIB);
}

#[test]
fn state_traffic_inside_a_module_never_counts_toward_the_rule() {
    // A state slot stored inside `c`'s scope and read back first in
    // backward is the caller's, not `c`'s: neither the module profile
    // nor the plan moves.
    let (plain, with_state) = (profiled_step(false), profiled_step(true));
    let state = with_state.cache.stats();
    let class = state
        .class(OffloadClass::OptimizerState)
        .expect("state moved");
    assert_eq!((class.offloaded_bytes, class.reloaded_bytes), (MIB, MIB));
    assert_eq!(with_state.profile.modules, plain.profile.modules);
    assert_eq!(with_state.plan, plain.plan);
}

#[test]
fn the_profiles_forward_totals_stay_forward_only_after_backward() {
    // Forward queued four 1 MiB stores (10 ms each) in 15 ms; backward
    // then cancelled two of them, but the profile completed after it
    // still reports what forward queued.
    let p = profiled_step(false);
    assert_eq!(p.profile.fwd_io_bytes, 4 * MIB);
    assert!(
        (p.profile.fwd_io_secs - 0.040).abs() < 1e-12,
        "{}",
        p.profile.fwd_io_secs
    );
    assert!((p.profile.fwd_total_secs - 0.015).abs() < 1e-12);
    assert_eq!(
        p.cache.io().bytes_written(),
        2 * MIB,
        "backward cancelled two"
    );
    assert_eq!(p.cache.stats().cancelled_stores, 2);
}

// ---------------------------------------------------------------------
// Symbolic execution
// ---------------------------------------------------------------------

#[test]
fn symbolic_offload_accounts_identical_bytes_with_f32_widths() {
    // Numeric rig.
    let rn = rig(offload_all_config(), 1e9, 1e9, 0.001);
    let (w1t, w2t, xt) = init_weights(&rn.dev, 41);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    run_step(&rn, &xt, &w1, &w2);
    let numeric_bytes = rn.cache.stats().offloaded_bytes;

    // Symbolic rig with the same shapes; force F32 accounting to match
    // the numeric device's default dtype.
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::symbolic();
    dev.set_default_dtype(ssdtrain_tensor::DType::F32);
    dev.set_tracker(mem.clone());
    let io = IoEngine::new(clock.clone(), 1e9, 1e9);
    let cache = TensorCache::with_tiers(
        offload_all_config(),
        Arc::new(TierStack::single(Arc::new(CpuTarget::new(1 << 40)))),
        io,
        mem.clone(),
    );
    let graph = Graph::new(&dev, 7);
    cache.install(&graph);
    graph.set_observer(Arc::new(FixedOpTime {
        clock: clock.clone(),
        secs_per_op: 0.001,
    }));
    let w1s = Var::new("w1", Tensor::zeros([8, 8], &dev));
    let w2s = Var::new("w2", Tensor::zeros([8, 8], &dev));
    let xs = Tensor::zeros([4, 8], &dev);
    cache.begin_step();
    graph.set_phase(Phase::Forward);
    cache.register_parameter(&w1s.tensor());
    cache.register_parameter(&w2s.tensor());
    let loss = two_layer_forward(&graph, &xs, &w1s, &w2s);
    cache.prefetch_last_module();
    graph.backward(&loss);
    cache.wait_io();

    assert_eq!(cache.stats().offloaded_bytes, numeric_bytes);
    assert!(w1s.grad().is_some());
}

// ---------------------------------------------------------------------
// SSD target integration (real files)
// ---------------------------------------------------------------------

#[test]
fn ssd_target_round_trips_through_real_files() {
    let dir = std::env::temp_dir().join(format!("ssdtrain-cache-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    let io = IoEngine::new(clock.clone(), 1e6, 1e6);
    let target = Arc::new(SsdTarget::new(&dir, WearMeter::new(1e15, 1.0)).unwrap());
    let cache = TensorCache::with_tiers(
        offload_all_config(),
        Arc::new(TierStack::single(target.clone())),
        io,
        mem.clone(),
    );
    let graph = Graph::new(&dev, 7);
    cache.install(&graph);
    graph.set_observer(Arc::new(FixedOpTime {
        clock: clock.clone(),
        secs_per_op: 1.0,
    }));

    let (w1t, w2t, xt) = init_weights(&dev, 43);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);
    let r = Rig {
        dev,
        graph,
        cache,
        mem,
        clock,
    };
    let loss = run_step(&r, &xt, &w1, &w2);
    assert!(loss.is_finite());
    let t: &Arc<SsdTarget> = &target;
    assert!(t.bytes_written() > 0, "wear metered");
    assert!(w1.grad().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four saves of two widths whose values all differ: a payload read from
/// another member's offset cannot decode to the right values. Every
/// value is exact in half precision, so the F16 round trips are exact.
fn mixed_width_saves(cache: &TensorCache, dev: &Device) -> Vec<(Packed, Vec<u32>)> {
    let widths = [DType::F32, DType::F16, DType::F32, DType::F16];
    let saves = widths.iter().enumerate().map(|(i, &dtype)| {
        let vals: Vec<f32> = (0..8 * (i + 1)).map(|j| (i * 100 + j) as f32).collect();
        let t = dev.with_dtype(dtype, || Tensor::from_vec(vals.clone(), [vals.len()], dev));
        // The cache holds the last reference, so a commit frees it.
        (cache.pack(&t), bits(&vals))
    });
    saves.collect()
}

fn bits(vals: &[f32]) -> Vec<u32> {
    vals.iter().map(|x| x.to_bits()).collect()
}

/// The bytes of `mixed_width_saves`: 32 + 32 + 96 + 64.
const MIXED_BYTES: u64 = 224;

#[test]
fn a_coalesced_ssd_segment_round_trips_around_a_forwarded_member() {
    use ssdtrain::StageHint;

    let dir = std::env::temp_dir().join(format!("ssdtrain-cache-seg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    // 1 kB/s: the segment holds the link for 0.224 s.
    let io = IoEngine::new(clock.clone(), 1e3, 1e9);
    let target = Arc::new(SsdTarget::new(&dir, WearMeter::new(1e15, 1.0)).unwrap());
    let cfg = TensorCacheConfig {
        coalesce_segment_bytes: 1 << 20,
        ..offload_all_config()
    };
    let cache = TensorCache::with_tiers(cfg, Arc::new(TierStack::single(target.clone())), io, mem);
    cache.begin_step();
    let saves = mixed_width_saves(&cache, &dev);
    // Forward's exit seals all four into one segment and leaves its
    // store on the link.
    drop(cache.stage_scope(StageHint::Forward));
    assert_eq!(cache.stats().coalesce_segments, 1);

    // Member 1 is consumed while the store runs: forwarded from memory,
    // so the commit skips it and the staged members around it close up.
    assert_eq!(bits(&cache.unpack(&saves[1].0).to_vec()), saves[1].1);
    assert_eq!(cache.stats().forwarded, 1);
    clock.advance_by(1.0);
    for i in [0, 2, 3] {
        let back = cache.unpack(&saves[i].0).to_vec();
        assert_eq!(bits(&back), saves[i].1, "member {i}");
    }
    assert_eq!(cache.stats().sync_loads, 3, "each came back from its file");
    assert_eq!(target.bytes_written(), MIXED_BYTES - 32);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_refused_segment_demotes_each_members_own_bytes() {
    use ssdtrain::{FaultyTarget, RecoveryPolicy, StageHint};
    use ssdtrain_simhw::{FaultKind, FaultPlan, FaultTrigger};

    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    let io = IoEngine::new(clock.clone(), 1e9, 1e9);
    let plan = FaultPlan::new(3).with_fault(FaultTrigger::NthOp { nth: 0 }, FaultKind::WriteError);
    let front = FaultyTarget::new(Arc::new(CpuTarget::new(1 << 20)), plan);
    let cfg = TensorCacheConfig {
        coalesce_segment_bytes: 1 << 20,
        recovery: RecoveryPolicy::FallbackTarget,
        ..offload_all_config()
    };
    let fallback = Arc::new(CpuTarget::new(1 << 20));
    let tiers = TierStack::new(vec![
        Tier::new("faulty-cpu", front, 0),
        Tier::new("cpu", fallback.clone(), 0).demotion_only(),
    ]);
    let cache = TensorCache::with_tiers(cfg, Arc::new(tiers), io, mem);
    cache.begin_step();
    let saves = mixed_width_saves(&cache, &dev);
    drop(cache.stage_scope(StageHint::Forward));
    clock.advance_by(1.0);

    // The first consume commits the segment; the front device refuses
    // it and every member is demoted with its own staged bytes.
    for (i, (packed, want)) in saves.iter().enumerate() {
        assert_eq!(&bits(&cache.unpack(packed).to_vec()), want, "member {i}");
    }
    let s = cache.stats();
    assert_eq!(s.store_failures, 1);
    assert_eq!(s.fallback_bytes, MIXED_BYTES);
    assert_eq!(fallback.bytes_written(), MIXED_BYTES);
    assert_eq!(s.sync_loads, 4, "each came back from the fallback");
}

// ---------------------------------------------------------------------
// Scheduler stage hints (Algorithm 1)
// ---------------------------------------------------------------------

#[test]
fn stage_scopes_drive_microbatch_switch_and_prefetch() {
    use ssdtrain::{StageHint, TraceCategory, TraceSink};

    let r = rig(offload_all_config(), 1e9, 1e9, 0.001);
    let sink = TraceSink::enabled();
    r.cache.set_trace(sink.clone());
    let (w1t, w2t, xt) = init_weights(&r.dev, 51);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);

    r.cache.begin_step();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());

    // Entering a micro-batch-load scope switches the record set
    // (Algorithm 1 line 9).
    drop(r.cache.stage_scope(StageHint::MicroBatchLoad(3)));
    r.graph.set_micro_batch(3);

    let fwd = r.cache.stage_scope(StageHint::Forward);
    let loss = two_layer_forward(&r.graph, &xt, &w1, &w2);

    // Advance past every store's completion so prefetches issue reads.
    r.clock.advance_by(10.0);

    // Lines 10-13: announcing an upcoming backward pass prefetches.
    let before = r.cache.stats().prefetches;
    fwd.announce_next(StageHint::Backward);
    assert!(
        r.cache.stats().prefetches > before,
        "announce_next(Backward) must prefetch the tail module"
    );
    drop(fwd);

    {
        let _bwd = r.cache.stage_scope(StageHint::Backward);
        r.graph.backward(&loss);
        // Line 15 runs on drop: waiting after a backward stage is a
        // no-op here (all loads consumed) but must not panic or stall.
    }

    // Every completed scope left a stage span on the trace.
    let stages: Vec<String> = sink
        .events()
        .iter()
        .filter(|e| e.cat == TraceCategory::Stage)
        .map(|e| e.name.clone())
        .collect();
    assert_eq!(
        stages,
        vec!["stage.load_mb3", "stage.forward", "stage.backward"]
    );
}

#[test]
fn stage_scopes_cover_the_algorithm1_shim_semantics() {
    use ssdtrain::StageHint;

    let r = rig(offload_all_config(), 1e9, 1e9, 0.001);
    let (w1t, w2t, xt) = init_weights(&r.dev, 51);
    let w1 = Var::new("w1", w1t);
    let w2 = Var::new("w2", w2t);

    r.cache.begin_step();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());

    // Algorithm 1 line 9: a micro-batch load switches the record set on
    // scope entry.
    let loss = {
        let _load = r.cache.stage_scope(StageHint::MicroBatchLoad(3));
        r.graph.set_micro_batch(3);
        two_layer_forward(&r.graph, &xt, &w1, &w2)
    };

    // Advance past every store's completion so prefetches issue reads.
    r.clock.advance_by(10.0);

    // Lines 10-13: announcing an upcoming backward prefetches the tail.
    let forward = r.cache.stage_scope(StageHint::Forward);
    let before = r.cache.stats().prefetches;
    forward.announce_next(StageHint::Backward);
    assert!(
        r.cache.stats().prefetches > before,
        "announce_next(Backward) must prefetch the tail module"
    );
    // Dropping a non-backward scope never triggers the I/O wait.
    drop(forward);

    // Line 15: leaving a backward scope drains I/O — a no-op here (all
    // loads consumed) but it must not panic or stall.
    let backward = r.cache.stage_scope(StageHint::Backward);
    r.graph.backward(&loss);
    let t = r.clock.now();
    drop(backward);
    assert_eq!(r.clock.now().as_secs(), t.as_secs());

    // Optimizer announcements are accepted and do nothing.
    let opt = r.cache.stage_scope(StageHint::Forward);
    opt.announce_next(StageHint::Optimizer);
}

// ---------------------------------------------------------------------
// The stage barrier waits only for what the next stage reads
// ---------------------------------------------------------------------

#[test]
fn forward_exit_leaves_activation_stores_to_backward() {
    use ssdtrain::StageHint;

    // Reference gradients: plain graph, no cache.
    let dev_ref = Device::cpu();
    let (w1t, w2t, xt) = init_weights(&dev_ref, 77);
    let (w1_ref, w2_ref) = (Var::new("w1", w1t.clone()), Var::new("w2", w2t.clone()));
    let g = Graph::new(&dev_ref, 7);
    let loss_ref = two_layer_forward(&g, &xt, &w1_ref, &w2_ref);
    g.backward(&loss_ref);

    // 128-byte activations at 64 kB/s: each store holds the link for
    // two operators, so forward ends with the head of the queue
    // written, one store on the link and the tail not yet started.
    let r = rig(offload_all_config(), 64_000.0, 1e9, 0.001);
    let w1 = Var::new("w1", w1t.deep_clone_as(MemClass::Parameter));
    let w2 = Var::new("w2", w2t.deep_clone_as(MemClass::Parameter));
    let x = Tensor::from_vec(xt.to_vec(), [4, 8], &r.dev);
    r.cache.begin_step();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());

    let fwd = r.cache.stage_scope(StageHint::Forward);
    let loss = two_layer_forward(&r.graph, &x, &w1, &w2);
    let fwd_end = r.clock.now();
    drop(fwd);
    assert!(
        r.cache.io().writes_drain_at() > fwd_end,
        "the fixture must leave stores in flight at forward's exit"
    );
    assert_eq!(r.clock.now(), fwd_end, "forward's exit must not wait");
    assert_eq!(r.cache.stats().store_stall_secs, 0.0);

    // The boundary stage announces backward (prefetch) and does not
    // wait for the queue either.
    let boundary = r.cache.stage_scope(StageHint::Communication);
    boundary.announce_next(StageHint::Backward);
    drop(boundary);
    assert_eq!(r.clock.now(), fwd_end);

    {
        let _bwd = r.cache.stage_scope(StageHint::Backward);
        r.graph.backward(&loss);
    }
    assert_eq!(loss.tensor().to_vec(), loss_ref.tensor().to_vec());
    for (got, want) in [(&w1, &w1_ref), (&w2, &w2_ref)] {
        let (got, want) = (got.grad().expect("grad"), want.grad().expect("grad"));
        assert_eq!(got.to_vec(), want.to_vec(), "gradients must be bit-exact");
    }

    // Backward resolved the queue every way there is: the landed head
    // was committed and reloaded, the store on the link was forwarded
    // while it ran on, the unstarted tail was forwarded and cancelled.
    // (The step input is a fourth record, but this test still holds it,
    // so its landed store frees and reloads nothing.)
    let s = r.cache.stats();
    assert_eq!(s.prefetches + s.sync_loads, 1, "{s:?}");
    assert_eq!((s.forwarded, s.cancelled_stores), (2, 1), "{s:?}");
    assert_eq!(
        (s.tiers[0].bytes_written, s.tiers[0].bytes_read),
        (128, 128)
    );
    // Backward's exit is where the queue is accounted for: nothing is
    // left on the link once it has dropped.
    assert!(r.cache.io().writes_drain_at() <= r.clock.now());
}

#[test]
fn state_stores_block_the_exit_that_follows_them() {
    use ssdtrain::StageHint;

    // 1 kB/s: the 128-byte state tensor holds the link for 0.128 s.
    let r = rig(offload_all_config(), 1e3, 1e9, 0.001);
    let (w1t, w2t, xt) = init_weights(&r.dev, 13);
    let (w1, w2) = (Var::new("w1", w1t), Var::new("w2", w2t));
    r.cache.begin_step();
    r.graph.set_phase(Phase::Forward);
    r.cache.register_parameter(&w1.tensor());
    r.cache.register_parameter(&w2.tensor());

    // A state write-back submitted before the micro-batch loads, ahead
    // of every activation on the same queue.
    let velocity = Tensor::from_vec(vec![0.5; 32], [4, 8], &r.dev);
    let slot = r
        .cache
        .offload_state(&velocity, OffloadClass::OptimizerState)
        .expect("state is admitted");
    let landed = r.cache.state_available_at(slot).expect("offloaded");
    assert!(landed > r.clock.now());

    // State has no forwarding path: the exit that follows waits for it,
    // so forward's activations never queue behind a backlog.
    drop(r.cache.stage_scope(StageHint::MicroBatchLoad(0)));
    assert_eq!(r.clock.now(), landed);
    let stalled = r.cache.stats().store_stall_secs;
    assert!((stalled - landed.as_secs()).abs() < 1e-12);

    // Activations queued by forward do not hold its exit …
    let fwd = r.cache.stage_scope(StageHint::Forward);
    let loss = two_layer_forward(&r.graph, &xt, &w1, &w2);
    let fwd_end = r.clock.now();
    drop(fwd);
    assert!(r.cache.io().writes_drain_at() > fwd_end);
    assert_eq!(r.clock.now(), fwd_end);

    // … but a state store behind them does, and only as far as its own
    // completion: nothing is queued after it, so that is the queue's.
    let grad = Tensor::from_vec(vec![0.25; 32], [4, 8], &r.dev);
    let reduce = r.cache.stage_scope(StageHint::Communication);
    let grad_slot = r
        .cache
        .offload_state(&grad, OffloadClass::Gradient)
        .expect("state is admitted");
    let grad_landed = r.cache.state_available_at(grad_slot).expect("offloaded");
    drop(reduce);
    assert_eq!(r.clock.now(), grad_landed);
    assert_eq!(r.cache.io().writes_drain_at(), grad_landed);

    r.graph.backward(&loss);
    r.cache.release_state(slot);
    r.cache.release_state(grad_slot);
}

#[test]
fn a_spill_seals_the_full_tiers_open_segment() {
    // A front tier with room for three 128-byte tensors and a 1 KiB
    // segment threshold, so nothing seals by size. The fourth tensor
    // spills past the full front tier, whose open segment cannot grow
    // any more: it seals then — its members' stores start while forward
    // runs — not when the stage exits.
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    let links = vec![
        TierLink::new("dram", 1e9, 1e9),
        TierLink::new("ssd", 1e9, 1e9),
    ];
    let io = IoEngine::tiered_with_bus(clock, links, 1e9);
    let tiers = TierStack::new(vec![
        Tier::new("dram", Arc::new(CpuTarget::new(1 << 40)), 0).with_capacity(384),
        Tier::new("ssd", Arc::new(CpuTarget::new(1 << 40)), 1),
    ]);
    let cfg = TensorCacheConfig {
        coalesce_segment_bytes: 1 << 10,
        ..offload_all_config()
    };
    let cache = TensorCache::with_tiers(cfg, Arc::new(tiers), io, mem);
    cache.begin_step();
    let saves: Vec<Tensor> = (0..5)
        .map(|i| Tensor::from_vec(vec![i as f32; 32], [32], &dev))
        .collect();
    let mut packed = Vec::new();
    for t in &saves[..3] {
        packed.push(cache.pack(t));
    }
    assert_eq!(
        cache.stats().coalesce_segments,
        0,
        "the front segment is open"
    );
    assert_eq!(cache.stats().store_jobs, 0);

    packed.push(cache.pack(&saves[3]));
    let stats = cache.stats();
    assert_eq!(
        stats.coalesce_segments, 1,
        "the spill sealed the front segment"
    );
    assert_eq!(stats.coalesced_bytes, 384);
    assert_eq!(cache.stats().store_jobs, 1);
    assert_eq!(cache.stats().spilled_bytes, 128);

    // A second spill finds no other tier with open bytes: nothing seals.
    packed.push(cache.pack(&saves[4]));
    assert_eq!(cache.stats().coalesce_segments, 1);
    assert_eq!(cache.stats().store_jobs, 1);
    drop(cache.stage_scope(ssdtrain::StageHint::Forward));
    assert_eq!(
        cache.stats().coalesce_segments,
        2,
        "the exit seals the rest"
    );
    for (p, t) in packed.iter().zip(&saves) {
        assert_eq!(cache.unpack(p).to_vec(), t.to_vec());
    }
}

// ---------------------------------------------------------------------
// Group look-ahead (hook-level rig)
// ---------------------------------------------------------------------

const MIB: u64 = 1 << 20;

/// One synthetic step driven through the hook protocol: every module
/// saves one 1 MiB tensor, the last `kept` modules are kept by plan, and
/// each module takes 2 ms forward and 2 ms backward. Groups are two
/// modules (unless built with [`HookStep::with`]), `prefetch_depth` is
/// 2, and the read link moves 1 MiB a millisecond.
struct HookStep {
    cache: Arc<TensorCache>,
    mem: Arc<GpuMemory>,
    dev: Device,
    clock: SimClock,
    sink: TraceSink,
    scopes: Vec<ScopeInfo>,
    saved: Vec<Packed>,
}

impl HookStep {
    /// Runs forward over `modules` modules on a write link of
    /// `write_bps`.
    fn forward(modules: usize, kept: usize, write_bps: f64) -> HookStep {
        HookStep::with(modules, kept, write_bps, MIB as f64 * 1e3, 2)
    }

    /// [`HookStep::forward`] on a read link of `read_bps`, with groups
    /// of `group` modules (0: the per-module prefetcher).
    fn with(modules: usize, kept: usize, write_bps: f64, read_bps: f64, group: usize) -> HookStep {
        let clock = SimClock::new();
        let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
        let dev = Device::cpu();
        dev.set_tracker(mem.clone());
        let io = IoEngine::new(clock.clone(), write_bps, read_bps);
        let config = TensorCacheConfig {
            prefetch_group_modules: group,
            prefetch_depth: 2,
            ..offload_all_config()
        };
        let target = Arc::new(CpuTarget::new(1 << 40));
        let cache =
            TensorCache::with_tiers(config, Arc::new(TierStack::single(target)), io, mem.clone());
        let sink = TraceSink::enabled();
        cache.set_trace(sink.clone());
        let scopes: Vec<ScopeInfo> = (0..modules)
            .map(|i| ScopeInfo {
                path: format!("m{i}"),
                seq: i as u64 + 1,
                micro_batch: 0,
            })
            .collect();
        let keep_paths = scopes[modules - kept..].iter().map(|s| s.path.clone());
        cache.set_plan(AdaptivePlan {
            keep_paths: keep_paths.collect(),
            ..AdaptivePlan::default()
        });
        cache.begin_step();
        cache.phase_changed(Phase::Forward);
        let mut saved = Vec::new();
        for scope in &scopes {
            cache.forward_pre(scope);
            // The cache holds the only reference: a committed store
            // releases the memory, as it does for a real activation.
            saved.push(cache.pack(&Tensor::zeros([MIB as usize / 4], &dev)));
            clock.advance_by(2e-3);
            cache.forward_post(scope);
        }
        HookStep {
            cache,
            mem,
            dev,
            clock,
            sink,
            scopes,
            saved,
        }
    }

    /// Announces the backward pass and returns when.
    fn announce(&self) -> SimTime {
        self.cache.prefetch_last_module();
        self.cache.phase_changed(Phase::Backward);
        self.clock.now()
    }

    /// Backward over the modules from the last one still pending down to
    /// `down_to`.
    fn backward(&mut self, down_to: usize) {
        while self.saved.len() > down_to {
            let scope = &self.scopes[self.saved.len() - 1];
            self.cache.backward_pre(scope);
            let packed = self.saved.pop().expect("a pending module");
            let tensor = self.cache.unpack(&packed);
            self.clock.advance_by(2e-3);
            drop((tensor, packed));
            self.cache.backward_post(scope);
        }
    }

    fn group_instants(&self) -> Vec<TraceEvent> {
        let events = self.sink.events();
        let groups = events.into_iter().filter(|e| e.name == "prefetch.group");
        groups.collect()
    }

    /// Activation bytes on the memory timeline at `t`.
    fn activations_at(&self, t: SimTime) -> u64 {
        let timeline = self.mem.timeline();
        let upto = timeline.iter().take_while(|p| p.time <= t);
        upto.last().map_or(0, |p| p.activations)
    }

    /// Peak activation bytes on the memory timeline within `[from, to]`.
    fn peak_between(&self, from: SimTime, to: SimTime) -> u64 {
        let timeline = self.mem.timeline().into_iter();
        let window = timeline.filter(|p| p.time >= from && p.time <= to);
        window.map(|p| p.activations).max().unwrap_or(0)
    }
}

fn arg(e: &TraceEvent, key: &str) -> u64 {
    e.arg_u64(key)
        .unwrap_or_else(|| panic!("prefetch.group has no `{key}` arg: {e:?}"))
}

#[test]
fn group_lookahead_starts_at_the_announcement_and_floors_at_prefetch_depth() {
    // Twelve modules, the last four kept: groups 4 and 5 hold no
    // records. The write link is fast, so every store landed long
    // before backward is announced and nothing has been freed yet —
    // zero headroom.
    let mut step = HookStep::forward(12, 4, 1e12);
    let announced = step.announce();

    // The walk skips the record-less groups: the first group is issued
    // now, not when consumption comes within two positions of it, and
    // with no headroom exactly `prefetch_depth` groups are in flight.
    let groups = step.group_instants();
    let issued: Vec<u64> = groups.iter().map(|e| arg(e, "group")).collect();
    assert_eq!(issued, [3, 2], "consumption order, floor only");
    for e in &groups {
        assert_eq!(e.ts, announced);
        assert_eq!(arg(e, "bytes"), 2 * MIB);
        assert_eq!(arg(e, "reload_bytes"), 2 * MIB);
    }
    assert_eq!(arg(&groups[0], "headroom"), 0);
    assert_eq!(arg(&groups[0], "lookahead"), 2);
    assert_eq!(arg(&groups[1], "lookahead"), 3);

    // Through the kept tail the floor groups sit above the bound, so
    // nothing more is issued; the 4 MiB in flight arrived long before
    // module 7 is reached.
    step.backward(8);
    assert_eq!(step.group_instants().len(), 2);
    step.backward(0);
    let groups = step.group_instants();
    let issued: Vec<u64> = groups.iter().map(|e| arg(e, "group")).collect();
    assert_eq!(
        issued,
        [3, 2, 1, 0],
        "each group once, in consumption order"
    );
    assert_eq!(step.cache.stats().stall_secs, 0.0);
    assert_eq!(step.cache.stats().sync_loads, 0);
    // (Commits are lazy, so the timeline is read once the step is over.)
    assert_eq!(step.activations_at(announced), 4 * MIB, "the kept tail");
}

#[test]
fn group_lookahead_spends_what_backward_hands_back_and_no_more() {
    // Sixteen modules, the last eight kept (8 MiB, the level backward
    // begins at), everything below them landed.
    let mut step = HookStep::forward(16, 8, 1e12);
    let announced = step.announce();
    // The floor at the announcement; the kept tail then frees a module
    // every 2 ms and the look-ahead issues a group as soon as its 2 MiB
    // fit under the bound again — while consumption is still in the
    // tail, groups away from the records.
    step.backward(8);
    let issued: Vec<u64> = step
        .group_instants()
        .iter()
        .map(|e| arg(e, "group"))
        .collect();
    assert_eq!(issued, [3, 2, 1]);
    step.backward(0);
    step.cache.wait_io();
    let groups = step.group_instants();
    let issued: Vec<u64> = groups.iter().map(|e| arg(e, "group")).collect();
    assert_eq!(issued, [3, 2, 1, 0], "no group loads twice");
    for e in &groups[2..] {
        assert!(arg(e, "lookahead") >= 3, "beyond the floor: {e:?}");
        assert!(arg(e, "reload_bytes") <= arg(e, "headroom"), "{e:?}");
        assert!(e.ts > announced);
    }
    assert_eq!(step.cache.stats().stall_secs, 0.0);
    // Above the level backward began at only by what the floor put in
    // flight before anything was freed.
    let bound = step.activations_at(announced);
    assert_eq!(bound, 8 * MIB);
    let after = step.peak_between(announced, step.clock.now());
    assert!(bound < after && after <= bound + 4 * MIB, "{after}");
}

#[test]
fn group_lookahead_forwards_the_store_backlog_without_lifting_the_level() {
    // A write link that moves 1 MiB in 16 ms against 2 ms of forward a
    // module: forward's stores run on into backward. Twelve modules,
    // four kept.
    let mut step = HookStep::forward(12, 4, MIB as f64 * 62.5);
    let announced = step.announce();
    // A record whose store has not landed is forwarded, which allocates
    // nothing: every group down to the landed one goes out at once,
    // floor or not. Group 0 would reload module 0's MiB; it waits for
    // the kept tail to hand one back.
    let groups = step.group_instants();
    let issued: Vec<u64> = groups.iter().map(|e| arg(e, "group")).collect();
    assert_eq!(issued, [3, 2, 1]);
    assert!(groups.iter().all(|e| e.ts == announced));
    assert!(groups.iter().all(|e| arg(e, "reload_bytes") == 0));
    step.backward(0);
    step.cache.wait_io();
    let last = &step.group_instants()[3];
    assert_eq!((arg(last, "group"), arg(last, "lookahead")), (0, 5));
    assert_eq!(
        (arg(last, "reload_bytes"), arg(last, "headroom")),
        (MIB, MIB)
    );
    assert_eq!(step.cache.stats().stall_secs, 0.0);
    assert_eq!(step.cache.stats().forwarded, 7);
    // One store landed in forward's 24 ms; seven were queued or in
    // flight and still resident, beside the kept tail.
    let bound = step.activations_at(announced);
    assert_eq!(bound, 11 * MIB);
    // Backward's prefetching never lifted activation memory above where
    // backward started, so the step's peak is forward's.
    let after = step.peak_between(announced, step.clock.now());
    assert_eq!(after, bound);
    let forward = step.peak_between(SimTime::ZERO, announced);
    assert_eq!(step.mem.peak_activations(), forward);
}

#[test]
fn the_look_ahead_level_skips_a_cancelled_segment_and_books_the_landed_one_behind_it() {
    // Groups of one module. Micro-batch 0's six modules, then micro-batch
    // 1's six, each save 1 MiB 2 ms apart on a write link that moves
    // 1 MiB in 5 ms: micro-batch 0's stores run [0, 5], [5, 10], …,
    // [25, 30] ms, and micro-batch 1's queue behind them.
    let mut step = HookStep::with(6, 0, MIB as f64 * 200.0, MIB as f64 * 1e3, 1);
    let later: Vec<Packed> = (0..6)
        .map(|i| {
            let scope = ScopeInfo {
                path: format!("n{i}"),
                seq: 7 + i as u64,
                micro_batch: 1,
            };
            step.cache.forward_pre(&scope);
            let packed = step
                .cache
                .pack(&Tensor::zeros([MIB as usize / 4], &step.dev));
            step.clock.advance_by(2e-3);
            step.cache.forward_post(&scope);
            packed
        })
        .collect();

    // Micro-batch 0's backward is announced at 24 ms. Its floor forwards
    // module 5, whose store is still queued — cancelled, so micro-batch
    // 1's first store moves up to [25, 30] ms — and module 4, whose
    // store is running. Module 3 would reload 1 MiB with no headroom.
    step.cache.set_micro_batch(0);
    step.announce();
    let issued: Vec<u64> = step
        .group_instants()
        .iter()
        .map(|e| arg(e, "group"))
        .collect();
    assert_eq!(issued, [5, 4]);
    let s = step.cache.stats();
    assert_eq!((s.forwarded, s.cancelled_stores), (2, 1), "{s:?}");

    // Module 5's backward runs to 32 ms and frees its MiB. By then
    // micro-batch 1's first store has landed behind the cancelled one,
    // and the level books it too: 2 MiB of headroom, so module 3 goes
    // out (the floor) and module 2 fits in what is left.
    step.cache.backward_pre(&step.scopes[5]);
    let packed = step.saved.pop().expect("module 5");
    let tensor = step.cache.unpack(&packed);
    step.clock.advance_by(8e-3);
    drop((tensor, packed));
    step.cache.backward_post(&step.scopes[5]);
    step.cache.backward_pre(&step.scopes[4]);
    let groups = step.group_instants();
    let issued: Vec<u64> = groups.iter().map(|e| arg(e, "group")).collect();
    assert_eq!(issued, [5, 4, 3, 2]);
    let level = |e: &TraceEvent| (arg(e, "reload_bytes"), arg(e, "headroom"));
    assert_eq!(level(&groups[2]), (MIB, 2 * MIB));
    assert_eq!(level(&groups[3]), (MIB, MIB));
    drop(later);
}

#[test]
fn a_state_load_overtakes_a_queued_group_and_a_state_prefetch_waits_behind_it() {
    // Eight modules, none kept: backward's consumption frees a group's
    // memory, so entering module 5 issues group 1 — 2 MiB, 2 ms on the
    // read link — at the current time.
    let mut step = HookStep::forward(8, 0, 1e12);
    let dev = Device::cpu();
    let grads: Vec<Tensor> = (0..2).map(|_| Tensor::zeros([64 << 10], &dev)).collect();
    let slot = |t: &Tensor| {
        let s = step.cache.offload_state(t, OffloadClass::Gradient);
        s.expect("a state slot")
    };
    let (a, b) = (slot(&grads[0]), slot(&grads[1]));
    step.announce();
    step.backward(6);
    let now = step.clock.now();
    step.cache.backward_pre(&step.scopes[5]);
    let groups = step.group_instants();
    let last = groups.last().expect("a group");
    assert_eq!(
        (arg(last, "group"), last.ts),
        (1, now),
        "group 1 issued now"
    );
    assert!(step.cache.state_available_at(a).expect("offloaded") <= now);

    // 256 KiB at 1 MiB a millisecond.
    let transfer = 0.25e-3;
    let group = 2e-3;
    // The load the caller stalls on goes ahead of the group: its own
    // transfer time, not the group's first.
    let ready = step.cache.load_state(a).expect("known slot");
    assert!((ready.since(now) - transfer).abs() < 1e-12, "{ready}");
    // The update that parks until its state lands queues behind the
    // group (which the demand read pushed back by its transfer).
    let parked = step.cache.prefetch_state(b).expect("known slot");
    let behind = transfer + group + transfer;
    assert!((parked.since(now) - behind).abs() < 1e-12, "{parked}");
    // Asking again issues nothing.
    assert_eq!(step.cache.prefetch_state(b), Some(parked));
    assert_eq!(step.cache.stats().reloaded_bytes, 6 * MIB + MIB / 2);
    step.backward(0);
    step.cache.release_state(a);
    step.cache.release_state(b);
}

// ---------------------------------------------------------------------
// State read ahead of its consumer, under the look-ahead's headroom
// ---------------------------------------------------------------------

/// An offloaded optimizer-state slot of `numel` f32s, on a device the
/// memory tracker does not see (so only activations set the level).
fn state_slot(cache: &TensorCache, numel: usize) -> (Tensor, ssdtrain::StateSlot) {
    let t = Tensor::zeros([numel], &Device::cpu());
    let slot = cache.offload_state(&t, OffloadClass::OptimizerState);
    (t, slot.expect("a state slot"))
}

fn read_ahead_instants(step: &HookStep) -> Vec<TraceEvent> {
    let events = step.sink.events().into_iter();
    events.filter(|e| e.name == "state.read_ahead").collect()
}

#[test]
fn a_state_read_ahead_waits_for_the_last_group_and_spends_the_headroom() {
    // Twelve modules, the last six kept (the 6 MiB bound), groups 2 and
    // 1 the floor at the announcement; a 2 MiB group takes 4 ms to read.
    let mut step = HookStep::with(12, 6, 1e12, MIB as f64 * 500.0, 2);
    let (_a, a) = state_slot(&step.cache, MIB as usize / 16);
    let (_b, b) = state_slot(&step.cache, MIB as usize / 16);
    let (_c, c) = state_slot(&step.cache, MIB as usize / 4);
    step.announce();
    let reloaded = |step: &HookStep| step.cache.stats().reloaded_bytes;

    // Five kept modules in, 1 MiB of headroom, but group 0 is not
    // issued yet: a state read now would queue ahead of it.
    step.backward(7);
    let before = reloaded(&step);
    assert_eq!(step.cache.read_ahead_state(a), None, "group 0 still to go");
    assert_eq!(reloaded(&step), before, "nothing on the read bus");

    // Entering module 5 issues group 0 and spends the headroom: a read
    // that does not fit is refused and issues nothing.
    step.backward(6);
    let now = step.clock.now();
    step.cache.backward_pre(&step.scopes[5]);
    let group0 = step
        .group_instants()
        .last()
        .map(|e| (arg(e, "group"), e.ts));
    assert_eq!(group0, Some((0, now)));
    assert_eq!(step.cache.read_ahead_state(a), None, "no headroom");
    assert_eq!(reloaded(&step), before + 2 * MIB, "group 0's reloads only");

    // Module 5 hands 1 MiB back. The read that fits is issued, FIFO
    // behind group 0 (2 ms per record, the second starting now).
    step.backward(5);
    let now = step.clock.now();
    let transfer = 0.5e-3; // 256 KiB
    let ready = step.cache.read_ahead_state(a).expect("it fits");
    let behind = now.plus_secs(2e-3 + transfer);
    assert!(ready.since(behind).abs() < 1e-12, "{ready} vs {behind}");
    let issued = read_ahead_instants(&step);
    assert_eq!(issued.len(), 1);
    assert_eq!(
        (arg(&issued[0], "bytes"), arg(&issued[0], "headroom")),
        (MIB / 4, MIB)
    );

    // A demand read overtakes it — and the record not started yet —
    // and pushes it back by its own transfer.
    let demand = step.cache.load_state(b).expect("known slot");
    assert!((demand.since(now) - transfer).abs() < 1e-12, "{demand}");
    let pushed = step.cache.prefetch_state(a).expect("in flight");
    assert!((pushed.since(ready) - transfer).abs() < 1e-12, "{pushed}");

    // 0.75 MiB of headroom is left, too little for 1 MiB; releasing the
    // first slot gives its bytes back.
    assert_eq!(step.cache.read_ahead_state(c), None);
    step.cache.release_state(a);
    assert!(
        step.cache.read_ahead_state(c).is_some(),
        "headroom returned"
    );
    assert_eq!(arg(&read_ahead_instants(&step)[1], "headroom"), MIB);
    step.backward(0);
    step.cache.release_state(b);
    step.cache.release_state(c);
}

#[test]
fn a_state_read_ahead_needs_the_group_look_ahead() {
    // The per-module prefetcher has no headroom bound: whatever backward
    // has handed back, nothing is read ahead.
    let mut step = HookStep::with(12, 6, 1e12, MIB as f64 * 1e3, 0);
    let (_a, a) = state_slot(&step.cache, MIB as usize / 16);
    assert_eq!(step.cache.read_ahead_state(a), None, "not announced");
    step.announce();
    for down_to in (0..12).rev() {
        step.backward(down_to);
        let before = step.cache.stats().reloaded_bytes;
        assert_eq!(step.cache.read_ahead_state(a), None, "at module {down_to}");
        assert_eq!(step.cache.stats().reloaded_bytes, before);
    }
    assert!(read_ahead_instants(&step).is_empty());
    step.cache.release_state(a);
}
