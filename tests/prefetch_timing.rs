//! The per-tensor prefetcher after a profiling step: each reload is
//! issued as late as it still lands before its first use, on the
//! timing the profiling backward recorded (DESIGN §10, *Just-in-time
//! reloads*).
//!
//! A profiled step holds no reload longer than it must, so its
//! activation peak is the level forward ends at and it stalls no more
//! than the depth walk; a schedule that does not fit the step (a profile
//! taken on a slow link, a forward order that changed) never changes a
//! number the model computes.

use ssdtrain::{CpuTarget, IoEngine, TensorCache, TensorCacheConfig, TierStack, TraceSink};
use ssdtrain_autograd::{Graph, Phase};
use ssdtrain_bench::paper_testbed;
use ssdtrain_models::{Arch, Batch, Model, ModelConfig, Recompute};
use ssdtrain_simhw::{GpuMemory, SimClock};
use ssdtrain_tensor::Device;
use ssdtrain_train::{
    OffloadBackend, PlacementStrategy, SessionBuilder, SessionConfig, StepMetrics, TrainSession,
};
use std::sync::Arc;

/// A numeric tiny GPT at batch 2, every activation offloaded to host
/// memory, prefetching `depth` modules ahead on the depth walk and
/// planning adaptively or not.
fn tiny_session(depth: usize, adaptive: bool, sink: TraceSink) -> TrainSession {
    micro_batched(1, depth, adaptive, sink)
}

/// [`tiny_session`] at batch 2 per micro-batch, in `micro_batches`.
fn micro_batched(
    micro_batches: usize,
    depth: usize,
    adaptive: bool,
    sink: TraceSink,
) -> TrainSession {
    let cfg = tiny_builder(micro_batches, depth, adaptive, sink)
        .build()
        .expect("valid config");
    TrainSession::new(cfg).expect("session")
}

/// The configuration of [`micro_batched`], left open.
fn tiny_builder(
    micro_batches: usize,
    depth: usize,
    adaptive: bool,
    sink: TraceSink,
) -> SessionBuilder {
    SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2 * micro_batches)
        .micro_batches(micro_batches)
        .cache(TensorCacheConfig {
            prefetch_depth: depth,
            adaptive,
            ..TensorCacheConfig::offload_everything()
        })
        .seed(7)
        .backend(OffloadBackend::Dram)
        .trace(sink)
}

/// The step after a profiling step.
fn profiled_step(session: &mut TrainSession) -> StepMetrics {
    session.profile_step().expect("profile step");
    session.run_step().expect("step")
}

/// A profiled tiny-GPT step reloads every tensor in time and holds no
/// reload longer than it must: its activation peak is the floor, the
/// peak of the same step reloading nothing ahead (depth 0), where
/// backward holds no more than forward left it. The depth walk reloads
/// two modules ahead and peaks above it. Every reload the schedule
/// issued says how early it lands. The profile is micro-batch 0's, and
/// a step in two micro-batches plans both from it.
#[test]
fn a_profiled_step_peaks_at_the_depth_zero_floor_without_a_stall() {
    for micro_batches in [1, 2] {
        let floor = profiled_step(&mut micro_batched(
            micro_batches,
            0,
            true,
            TraceSink::disabled(),
        ));
        let sink = TraceSink::enabled();
        let mut session = micro_batched(micro_batches, 2, true, sink.clone());
        let m = profiled_step(&mut session);
        let shape = format!("{micro_batches} micro-batch(es)");
        assert_eq!(m.offload.stall_secs, 0.0, "{shape}: a reload landed late");
        assert!(
            m.offload.prefetches > 0,
            "{shape}: nothing was reloaded ahead of use"
        );
        assert_eq!(m.offload.sync_loads, 0, "{shape}");
        assert_eq!(
            m.act_peak_bytes, floor.act_peak_bytes,
            "{shape}: backward held a reload above the level it holds reloading nothing ahead"
        );
        let events = sink.events();
        let issues: Vec<_> = events
            .iter()
            .filter(|e| e.step == 2 && e.name == "prefetch.issue")
            .collect();
        assert_eq!(issues.len() as u64, m.offload.prefetches, "{shape}");
        for e in issues {
            let ns = e.arg_f64("slack_ns");
            let ns = ns.unwrap_or_else(|| panic!("{shape}: a reload was not planned: {e:?}"));
            assert!(ns >= 0.0, "{shape}: planned to land late: {ns} ns");
        }
    }
}

/// T5's decoder reads the encoder's output in every cross-attention, so
/// its backward does not consume modules in reverse forward order: the
/// depth-1 walk (the paper's scheme) stalls on Figure 10's T5 H8192 L4
/// cell (0.067 s). The profiled schedule follows the recorded
/// consumption and stalls on nothing, at depth 1's peak or below.
#[test]
fn t5_cross_attention_reloads_in_time_at_depth_one() {
    let cfg = paper_testbed(Arch::T5, 8192, 4, 16)
        .strategy(PlacementStrategy::Offload)
        .prefetch_depth(1)
        .build()
        .expect("valid config");
    let mut session = TrainSession::new(cfg).expect("session");
    let m = profiled_step(&mut session);
    assert_eq!(m.offload.stall_secs, 0.0, "a reload landed late");
    let gib = m.act_peak_bytes as f64 / f64::from(1u32 << 30);
    assert!(gib <= 4.38, "peak {gib:.2} GiB above depth 1's 4.38 GiB");
}

/// The profile times hooks in compute seconds: stalls the profiling
/// step suffered on a slowed link are subtracted, so the step after it,
/// on the healthy link, runs exactly as after a healthy profile.
#[test]
fn a_profile_taken_on_a_slow_link_still_times_the_compute() {
    let healthy = profiled_step(&mut tiny_session(2, false, TraceSink::disabled()));

    let mut session = tiny_session(2, false, TraceSink::disabled());
    let io = session.cache().expect("cache").io().clone();
    io.throttle(200.0);
    session.profile_step().expect("profile step");
    let stalled = session.cache().expect("cache").stats().stall_secs;
    assert!(stalled > 0.0, "the slowed profiling step did not stall");
    io.throttle(1.0 / 200.0);
    let m = session.run_step().expect("step");
    assert_eq!(
        m.offload.stall_secs, 0.0,
        "offsets kept the profile's stalls"
    );
    assert_eq!(m.step_secs, healthy.step_secs);
    assert_eq!(m.act_peak_bytes, healthy.act_peak_bytes);
    assert_eq!(m.loss.to_bits(), healthy.loss.to_bits());
}

/// A cache, graph and model driven by hand: the profile comes from one
/// model and the step from another, so no record of the step sits where
/// the profile saw one.
/// No executor charges compute here, so the rig advances the clock a
/// second between forward and backward: every store lands and backward
/// reloads every record.
struct Rig {
    clock: SimClock,
    dev: Device,
    cache: Arc<TensorCache>,
}

impl Rig {
    fn new() -> Rig {
        let clock = SimClock::new();
        let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 30));
        let dev = Device::cpu();
        dev.set_tracker(mem.clone());
        let io = IoEngine::new(clock.clone(), 1e9, 1e9);
        let cache = TensorCache::with_tiers(
            TensorCacheConfig {
                coalesce_segment_bytes: 0,
                ..TensorCacheConfig::offload_everything()
            },
            Arc::new(TierStack::single(Arc::new(CpuTarget::new(1 << 30)))),
            io,
            mem,
        );
        Rig { clock, dev, cache }
    }

    /// One step of `model` — through the cache when `cached` — returning
    /// the loss's bits and every parameter gradient's.
    fn step(&self, model: &Model, cached: bool, profile: bool) -> (u32, Vec<Vec<u32>>) {
        if profile {
            self.cache.begin_profile_step();
        } else {
            self.cache.begin_step();
        }
        let g = Graph::new(&self.dev, 3);
        if cached {
            self.cache.install(&g);
        }
        g.set_phase(Phase::Forward);
        let batch = Batch::synthetic(model.config(), 2, 11, &self.dev);
        let loss = model.forward_loss(&g, &batch, Recompute::None);
        self.clock.advance_by(1.0);
        self.cache.prefetch_last_module();
        g.backward(&loss);
        self.cache.wait_io();
        self.cache.drain_stores();
        if profile {
            let _ = self.cache.end_profile_step();
        }
        self.cache.flush();
        let params = model.parameters();
        let grads = params.iter().map(|p| {
            let grad = p.grad().map(|t| t.to_vec()).unwrap_or_default();
            p.zero_grad();
            grad.into_iter().map(f32::to_bits).collect()
        });
        (loss.tensor().item().to_bits(), grads.collect())
    }
}

/// A profile recorded on a tiny GPT, applied to a tiny T5 step: the
/// schedule reloads the wrong records at the wrong times, and the T5
/// step still computes its loss and gradients bit for bit as without
/// the cache. The plan is the pass's only prefetcher: every prefetch it
/// issues is a planned one, and a record the profile did not see is
/// reloaded on demand at its unpack.
#[test]
fn a_step_that_does_not_match_its_profile_keeps_its_numbers() {
    let rig = Rig::new();
    let gpt = Model::build(&ModelConfig::tiny_gpt(), &rig.dev, 5);
    let t5 = Model::build(&ModelConfig::tiny_t5(), &rig.dev, 5);
    let uncached = rig.step(&t5, false, false);
    rig.step(&gpt, true, true);
    let sink = TraceSink::enabled();
    rig.cache.set_trace(sink.clone());
    let cached = rig.step(&t5, true, false);
    let stats = rig.cache.stats();
    assert!(stats.reloaded_bytes > 0, "the T5 step reloaded nothing");
    assert!(stats.sync_loads > 0, "no record missed the profile");
    for e in sink.events().iter().filter(|e| e.name == "prefetch.issue") {
        assert!(
            e.arg_f64("slack_ns").is_some(),
            "an unplanned prefetch: {e:?}"
        );
    }
    assert_eq!(cached, uncached);
}

/// `prefetch_depth == 0` turns prefetching off, profiled or not, with
/// or without groups: every reload is a synchronous one.
#[test]
fn depth_zero_prefetches_nothing_after_profiling() {
    for group in [0, 2] {
        let cfg = tiny_builder(1, 0, true, TraceSink::disabled())
            .prefetch_group(group)
            .build()
            .expect("valid config");
        let m = profiled_step(&mut TrainSession::new(cfg).expect("session"));
        assert_eq!(m.offload.prefetches, 0, "group {group}");
        assert!(
            m.offload.sync_loads > 0,
            "group {group}: nothing was reloaded"
        );
    }
}

/// With forwarding off, a prefetch that reaches a record whose store is
/// still in flight leaves it alone: `unpack` waits for the store and
/// reads the bytes back. Only a staged record, which never queued a
/// job, is handed back. On Figure 10's BERT H8192 L4 cell nothing is
/// forwarded, two reloads are synchronous, and the wait shows as stall.
#[test]
fn forwarding_off_forwards_nothing_at_prefetch_time() {
    let cfg = paper_testbed(Arch::Bert, 8192, 4, 16)
        .strategy(PlacementStrategy::Offload)
        .cache(TensorCacheConfig {
            forwarding: false,
            cancel_forwarded_stores: false,
            ..TensorCacheConfig::default()
        })
        .build()
        .expect("valid config");
    let m = profiled_step(&mut TrainSession::new(cfg).expect("session"));
    assert_eq!(m.offload.forwarded, 0, "a store in flight was forwarded");
    assert!(m.offload.sync_loads > 0, "no store was waited for");
    assert!(m.offload.stall_secs > 0.0);
}

/// The plan keeps the same modules whichever prefetcher profiled the
/// step: besides the cutoff's tail, each module whose stores were all
/// still queued when forward ended, a measure the store queue sets at
/// submission and no prefetcher moves. On `sym_deep_tiered`'s 12-layer
/// twin the depth walk (group 0) and the group look-ahead (group 2) keep
/// the same 17 paths, so the depth walk writes no module whose stores
/// could not land before the peak: a warm step of the activation-only
/// twin writes at most 1.50 GB.
#[test]
fn the_plan_keeps_the_same_modules_whichever_prefetcher_profiled_it() {
    let session = |group: usize, all_classes: bool| {
        let mut cfg = ssdtrain_bench::deep_tiered_config(12);
        cfg.cache.prefetch_group_modules = group;
        if !all_classes {
            cfg.offload = Default::default();
        }
        let mut s = TrainSession::new(cfg).expect("session");
        let (_, plan) = s.profile_step().expect("profile step");
        (s, plan)
    };
    let (_, look_ahead) = session(2, true);
    let (_, depth_walk) = session(0, true);
    assert_eq!(look_ahead.keep_paths.len(), 17, "{look_ahead:?}");
    assert_eq!(depth_walk.keep_paths, look_ahead.keep_paths);

    let (mut s, _) = session(0, false);
    s.run_step().expect("step");
    let m = s.run_step().expect("step");
    let gb = ssdtrain_bench::gb(m.ssd_host_writes);
    assert!(gb <= 1.50, "a warm group-0 step wrote {gb:.3} GB");
}
