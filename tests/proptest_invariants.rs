//! Property-based tests over the core data structures and invariants:
//! the store queue's FIFO schedule, memory-timeline conservation, tensor
//! identity stability, serialisation round trips, the adaptive planner's
//! monotonicity, and numeric/symbolic agreement of kernel shapes.

use proptest::prelude::*;
use ssdtrain::adaptive::{AdaptivePlan, ModuleProfile, StepProfile};
use ssdtrain::{CpuTarget, IoEngine, OffloadTarget, Tier, TierLink, TierStack};
use ssdtrain_simhw::{GpuMemory, SimClock, SimTime};
use ssdtrain_tensor::storage::{f16_bits_to_f32, f32_to_f16_bits};
use ssdtrain_tensor::{Device, MemClass, MemTracker, Prng, Tensor};
use std::sync::Arc;

// ---------------------------------------------------------------------
// I/O engine
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn store_queue_is_fifo_and_gapless_under_cancellation(
        sizes in prop::collection::vec(1u64..10_000_000, 1..40),
        cancel_mask in prop::collection::vec(any::<bool>(), 40),
    ) {
        let clock = SimClock::new();
        let io = IoEngine::new(clock, 1e9, 1e9);
        let jobs: Vec<_> = sizes.iter().map(|s| io.submit_store(*s)).collect();
        // Cancel a subset (only queued jobs actually cancel).
        let mut live_bytes: u64 = sizes.iter().sum();
        let mut live = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            if cancel_mask[i % cancel_mask.len()]
                && io.try_cancel_store(*job, SimTime::ZERO)
            {
                live_bytes -= sizes[i];
            } else {
                live.push(*job);
            }
        }
        prop_assert_eq!(io.bytes_written(), live_bytes);
        // Remaining jobs: ends strictly increasing, total time = bytes/bw.
        let mut ends: Vec<f64> =
            live.iter().map(|j| io.store_end(*j).as_secs()).collect();
        let drain = io.writes_drain_at().as_secs();
        prop_assert!((drain - live_bytes as f64 / 1e9).abs() < 1e-6);
        ends.sort_by(f64::total_cmp);
        for w in ends.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn loads_never_finish_before_their_transfer_time(
        sizes in prop::collection::vec(1u64..50_000_000, 1..30),
    ) {
        let clock = SimClock::new();
        let io = IoEngine::new(clock.clone(), 1e9, 2e9);
        let mut prev_end = 0.0;
        for s in &sizes {
            let ready = io.read_end(io.submit_load_from(0, *s)).as_secs();
            let min = clock.now().as_secs() + *s as f64 / 2e9;
            prop_assert!(ready >= min - 1e-9);
            prop_assert!(ready >= prev_end, "FIFO order");
            prev_end = ready;
        }
        prop_assert_eq!(io.bytes_read(), sizes.iter().sum::<u64>());
    }
}

proptest! {
    #[test]
    fn write_queue_stays_fifo_under_throttling_and_cancellation(
        sizes in prop::collection::vec(1u64..50_000_000, 2..24),
        factors in prop::collection::vec(1.0f64..8.0, 1..4),
        cancel_mask in prop::collection::vec(any::<bool>(), 24),
        advance_ms in prop::collection::vec(0u32..2000, 1..4),
    ) {
        let clock = SimClock::new();
        let io = IoEngine::new(clock.clone(), 1e9, 1e9);
        let half = sizes.len() / 2;
        let mut jobs: Vec<_> = sizes[..half].iter().map(|s| io.submit_store(*s)).collect();
        // Degrade the device mid-run, with the clock possibly advanced
        // into (or past) the queued work.
        let mut total_factor = 1.0;
        for (i, f) in factors.iter().enumerate() {
            clock.advance_by(advance_ms[i % advance_ms.len()] as f64 / 1000.0);
            io.throttle(*f);
            total_factor *= *f;
        }
        jobs.extend(sizes[half..].iter().map(|s| io.submit_store(*s)));
        // Stores submitted after the throttles pay the composed factor.
        for (job, size) in jobs[half..].iter().zip(&sizes[half..]) {
            let (start, end) = io.store_span(*job);
            let want = *size as f64 * total_factor / 1e9;
            prop_assert!((end.since(start) - want).abs() <= want * 1e-9 + 1e-10);
        }
        // Cancel a random subset; only still-queued jobs actually cancel.
        let live: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(i, j)| {
                !(cancel_mask[*i % cancel_mask.len()]
                    && io.try_cancel_store(**j, clock.now()))
            })
            .map(|(i, _)| i)
            .collect();
        // FIFO survives throttling + cancellation: surviving jobs end in
        // submission order, never before their own submit + transfer
        // time at the original (fastest) bandwidth, and the queue drains
        // exactly when its last survivor does.
        let mut prev_end = 0.0;
        for &i in &live {
            let end = io.store_end(jobs[i]).as_secs();
            prop_assert!(end >= prev_end, "job {i} ends before its predecessor");
            prop_assert!(end >= sizes[i] as f64 / 1e9 - 1e-9);
            prev_end = end;
        }
        prop_assert!((io.writes_drain_at().as_secs() - prev_end).abs() < 1e-9);
        prop_assert_eq!(
            io.bytes_written(),
            live.iter().map(|&i| sizes[i]).sum::<u64>()
        );
    }
}

/// The two queues' scheduling rules, written out independently of
/// `IoEngine` and rebuilt from time zero after every operation: one
/// store FIFO over every link's jobs, and one read queue in which a
/// demand read sits ahead of every prefetch that had not started when
/// it was submitted.
#[derive(Default)]
struct ReferenceQueue {
    /// Every store job in submission order.
    jobs: Vec<ReferenceJob>,
    /// Every read in submission order (`cancelled` is never set).
    reads: Vec<ReferenceJob>,
    /// Whether each read was a demand read.
    demand: Vec<bool>,
    /// `reads` indices in service order.
    read_order: Vec<usize>,
}

struct ReferenceJob {
    submit: f64,
    start: f64,
    end: f64,
    dur: f64,
    cancelled: bool,
}

impl ReferenceQueue {
    fn reschedule(&mut self) {
        let mut prev_end = 0.0f64;
        for j in self.jobs.iter_mut().filter(|j| !j.cancelled) {
            j.start = j.submit.max(prev_end);
            j.end = j.start + j.dur;
            prev_end = j.end;
        }
    }

    /// Queues a read: a prefetch at the tail, a demand read right behind
    /// the last read that has started or is a demand read.
    fn submit_read(&mut self, demand: bool, now: f64, dur: f64) {
        let behind = |&i: &usize| self.demand[i] || self.reads[i].start < now;
        let pos = match demand {
            true => self
                .read_order
                .iter()
                .rposition(behind)
                .map_or(0, |p| p + 1),
            false => self.read_order.len(),
        };
        self.read_order.insert(pos, self.reads.len());
        self.demand.push(demand);
        self.reads.push(ReferenceJob {
            submit: now,
            start: 0.0,
            end: 0.0,
            dur,
            cancelled: false,
        });
        let mut prev_end = 0.0f64;
        for &i in &self.read_order {
            let j = &mut self.reads[i];
            j.start = j.submit.max(prev_end);
            j.end = j.start + j.dur;
            prev_end = j.end;
        }
    }

    fn throttle(&mut self, factor: f64, now: f64) {
        for j in self.jobs.iter_mut().filter(|j| !j.cancelled) {
            if j.end <= now {
                continue;
            }
            if j.start >= now {
                j.dur *= factor;
            } else {
                j.dur = (now - j.start) + (j.end - now) * factor;
            }
        }
        self.reschedule();
    }
}

proptest! {
    #[test]
    fn partial_reschedules_match_a_from_scratch_reschedule(
        // (operation, operand, link): 0-2 submit `operand` KB on `link`,
        // 3 cancel job `operand`, 4 throttle, 5 advance `operand` us,
        // 6 prefetch and 7 demand-read `operand` KB from `link`.
        ops in prop::collection::vec((0u8..8, 1u64..50_000, 0usize..3), 1..60),
        overhead_us in 0u32..2_000,
    ) {
        let clock = SimClock::new();
        let rates = [3e9, 1e9, 2e9];
        let bus = 2.5e9;
        let links = ["dram", "ssd", "cxl"]
            .iter()
            .zip(rates)
            .map(|(n, w)| TierLink::new(*n, w, w))
            .collect();
        let io = IoEngine::tiered_with_bus(clock.clone(), links, bus);
        let overhead = overhead_us as f64 * 1e-6;
        io.set_store_job_overhead(overhead);
        let mut reference = ReferenceQueue::default();
        let mut jobs = Vec::new();
        let mut reads = Vec::new();
        let mut slowdown = 1.0f64;
        for (op, operand, link) in ops {
            let now = clock.now().as_secs();
            match op {
                0..=2 => {
                    let bytes = operand * 1000;
                    jobs.push(io.submit_store_to(link, bytes));
                    let dur = overhead + bytes as f64 * slowdown / rates[link].min(bus);
                    reference.jobs.push(ReferenceJob {
                        submit: now,
                        start: 0.0,
                        end: 0.0,
                        dur,
                        cancelled: false,
                    });
                    reference.reschedule();
                }
                3 if !jobs.is_empty() => {
                    let i = operand as usize % jobs.len();
                    let job = &mut reference.jobs[i];
                    let queued = !job.cancelled && job.start > now;
                    job.cancelled |= queued;
                    prop_assert_eq!(io.try_cancel_store(jobs[i], clock.now()), queued);
                    reference.reschedule();
                }
                4 => {
                    let factor = 1.0 + (operand % 7) as f64 / 2.0;
                    io.throttle(factor);
                    slowdown *= factor;
                    reference.throttle(factor, now);
                }
                6 | 7 => {
                    let (bytes, demand) = (operand * 1000, op == 7);
                    reads.push(if demand {
                        io.submit_demand_load_from(link, bytes)
                    } else {
                        io.submit_load_from(link, bytes)
                    });
                    let dur = bytes as f64 * slowdown / rates[link].min(bus);
                    reference.submit_read(demand, now, dur);
                }
                _ => {
                    clock.advance_by(operand as f64 * 1e-6);
                }
            }
            let live = jobs.iter().zip(&reference.jobs).filter(|(_, w)| !w.cancelled);
            for (job, want) in live {
                let (start, end) = io.store_span(*job);
                prop_assert_eq!(start.as_secs().to_bits(), want.start.to_bits());
                prop_assert_eq!(end.as_secs().to_bits(), want.end.to_bits());
            }
            for (read, want) in reads.iter().zip(&reference.reads) {
                prop_assert_eq!(io.read_end(*read).as_secs().to_bits(), want.end.to_bits());
            }
            // One bus: no two reads overlap.
            let mut spans: Vec<_> = reads.iter().map(|r| io.read_span(*r)).collect();
            spans.sort_by(|a, b| a.0.as_secs().total_cmp(&b.0.as_secs()));
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "reads overlap: {:?}", w);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Recovery accounting
// ---------------------------------------------------------------------

proptest! {
    // Training sessions are comparatively expensive; a handful of cases
    // still sweeps the trigger x policy space.
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn recovery_conserves_the_offloaded_byte_account(
        seed in 0u64..1_000,
        use_fallback in any::<bool>(),
        trigger_idx in 0usize..4,
        knob in 1u64..5,
    ) {
        use ssdtrain::RecoveryPolicy;
        use ssdtrain_models::ModelConfig;
        use ssdtrain_simhw::{FaultKind, FaultPlan, FaultTrigger};
        use ssdtrain_train::{SessionConfig, TrainSession};

        let trigger = match trigger_idx {
            0 => FaultTrigger::NthOp { nth: knob - 1 },
            1 => FaultTrigger::ByteThreshold { bytes: knob * 4096 },
            2 => FaultTrigger::WearFraction { fraction: 0.0 },
            _ => FaultTrigger::Random { prob: knob as f64 / 8.0 },
        };
        let kind = if trigger_idx == 2 {
            FaultKind::EnduranceExhausted
        } else {
            FaultKind::WriteError
        };
        let session = |fault: Option<FaultPlan>| -> TrainSession {
            let mut builder = SessionConfig::builder()
                .model(ModelConfig::tiny_gpt())
                .batch_size(1)
                .cache(ssdtrain::TensorCacheConfig::offload_everything())
                .recovery(if use_fallback {
                    RecoveryPolicy::FallbackTarget
                } else {
                    RecoveryPolicy::KeepResident
                })
                .seed(seed);
            if let Some(plan) = fault {
                builder = builder.fault(plan);
            }
            let cfg = builder.build().expect("valid config");
            TrainSession::new(cfg).expect("session construction")
        };
        let mut healthy = session(None);
        let mut faulty = session(Some(
            FaultPlan::new(seed).with_recurring_fault(trigger, kind),
        ));
        for step in 0..2 {
            let h = healthy.run_step().expect("healthy step").offload;
            let f = faulty.run_step().expect("recovery absorbs store faults").offload;
            // Every byte the healthy run offloads is accounted for in
            // the faulty run: it stayed on the primary target, moved to
            // the fallback, or was kept resident after a failed store.
            prop_assert_eq!(
                f.offloaded_bytes + f.fallback_bytes + f.kept_resident_bytes,
                h.offloaded_bytes,
                "step {}: rerouted bytes must conserve the healthy account",
                step
            );
            // Bytes only leave the primary account through a failure.
            if f.fallback_bytes + f.kept_resident_bytes > 0 {
                prop_assert!(f.store_failures > 0);
                prop_assert!(f.degraded());
            }
            if use_fallback {
                prop_assert_eq!(
                    f.kept_resident_bytes, 0,
                    "a healthy fallback target absorbs every failed store"
                );
            } else {
                prop_assert_eq!(f.fallback_bytes, 0);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Offload classes
// ---------------------------------------------------------------------

proptest! {
    // Full training sessions again: a handful of cases sweeps the
    // class-subset x overlap space.
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn class_lanes_partition_the_global_byte_account(
        seed in 0u64..1_000,
        grads in any::<bool>(),
        states in any::<bool>(),
        overlap in any::<bool>(),
    ) {
        use ssdtrain::{OffloadClass, TensorCacheConfig};
        use ssdtrain_models::ModelConfig;
        use ssdtrain_train::{SessionConfig, TrainSession};

        let cfg = SessionConfig::builder()
            .model(ModelConfig::tiny_gpt())
            .batch_size(1)
            .cache(TensorCacheConfig::offload_everything())
            .offload(OffloadClass::Gradient, grads)
            .offload(OffloadClass::OptimizerState, states)
            .overlap_optimizer(overlap)
            .momentum(if states { 0.9 } else { 0.0 })
            .seed(seed)
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        for _ in 0..2 {
            let _ = s.run_step().expect("step");
        }
        let stats = s.cache().expect("cache").stats();
        // Every byte the cache moved is attributed to exactly one class.
        let (off, re) = stats
            .classes
            .iter()
            .fold((0, 0), |(o, r), c| (o + c.offloaded_bytes, r + c.reloaded_bytes));
        prop_assert_eq!(off, stats.offloaded_bytes);
        prop_assert_eq!(re, stats.reloaded_bytes);
        // Disabled classes move nothing (the lane may exist zeroed —
        // `class_mut` materialises lanes in label order).
        let moved = |class| {
            stats
                .class(class)
                .is_some_and(|c| c.offloaded_bytes + c.reloaded_bytes + c.stores + c.loads > 0)
        };
        if !grads {
            prop_assert!(!moved(OffloadClass::Gradient));
        }
        if !states {
            prop_assert!(!moved(OffloadClass::OptimizerState));
        }
    }
}

proptest! {
    #[test]
    fn state_loads_never_complete_before_their_stores_drain(
        sizes in prop::collection::vec(1usize..4_000, 1..16),
        write_bps in 1e6f64..1e10,
        read_bps in 1e6f64..1e10,
        advance_ms in 0u32..100,
    ) {
        use ssdtrain::{OffloadClass, TensorCache, TensorCacheConfig};

        let clock = SimClock::new();
        let io = IoEngine::new(clock.clone(), write_bps, read_bps);
        let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 60));
        let cache = TensorCache::with_tiers(
            TensorCacheConfig::offload_everything(),
            Arc::new(TierStack::single(Arc::new(CpuTarget::new(1 << 40)))),
            io,
            mem,
        );
        let dev = Device::cpu();
        let slots: Vec<_> = sizes
            .iter()
            .map(|n| {
                let t = Tensor::zeros([*n], &dev);
                cache
                    .offload_state(&t, OffloadClass::OptimizerState)
                    .expect("offload-everything admits state")
            })
            .collect();
        clock.advance_by(advance_ms as f64 / 1000.0);
        for slot in slots {
            let stored = cache.state_available_at(slot).expect("live slot");
            let ready = cache.load_state(slot).expect("live slot");
            // The reload can never observe bytes the store has not yet
            // landed on the tier: ready >= store completion, and at
            // least the load's own transfer time from now.
            prop_assert!(ready >= stored, "{} < {}", ready.as_secs(), stored.as_secs());
            prop_assert!(ready >= clock.now());
            cache.release_state(slot);
        }
    }
}

// ---------------------------------------------------------------------
// Memory timeline
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn memory_timeline_conserves_bytes(
        events in prop::collection::vec((1u64..1_000_000, any::<bool>(), 0u32..1000), 1..200),
    ) {
        let clock = SimClock::new();
        let mem = GpuMemory::new(clock, 1 << 60);
        let mut alive: i64 = 0;
        for (bytes, is_free, at_ms) in &events {
            let t = SimTime::from_secs(*at_ms as f64 / 1000.0);
            mem.with_time(t, || {
                if *is_free && alive >= *bytes as i64 {
                    mem.on_free(*bytes, MemClass::Activation);
                    alive -= *bytes as i64;
                } else {
                    mem.on_alloc(*bytes, MemClass::Activation);
                    alive += *bytes as i64;
                }
            });
        }
        prop_assert_eq!(mem.resident(MemClass::Activation) as i64, alive);
        // Peak is at least the final level and at least any single alloc.
        prop_assert!(mem.peak_activations() as i64 >= alive);
        let tl = mem.timeline();
        prop_assert_eq!(tl.len(), events.len());
        for w in tl.windows(2) {
            prop_assert!(w[1].time >= w[0].time, "timeline sorted");
        }
        prop_assert_eq!(tl.last().map(|p| p.activations as i64), Some(alive));
    }
}

// ---------------------------------------------------------------------
// Tensor identity and serialisation
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn tensor_key_is_stable_across_views(
        rows in 1usize..8,
        cols in 1usize..8,
    ) {
        let dev = Device::cpu();
        let t = Tensor::zeros([rows, cols], &dev);
        let k1 = ssdtrain::id::tensor_key(&t);
        let k2 = ssdtrain::id::tensor_key(&t.clone());
        prop_assert_eq!(&k1, &k2);
        let kt = ssdtrain::id::tensor_key(&t.t());
        prop_assert_eq!(k1.stamp, kt.stamp);
        if rows != cols {
            prop_assert_ne!(&k1.shape, &kt.shape);
        }
    }

    #[test]
    fn f16_roundtrip_error_is_within_half_ulp(v in -60000.0f32..60000.0) {
        let back = f16_bits_to_f32(f32_to_f16_bits(v));
        // Half precision has ~10 mantissa bits -> relative error < 2^-10.
        let tol = (v.abs() * 1.0 / 1024.0).max(1e-7);
        prop_assert!((back - v).abs() <= tol, "{v} -> {back}");
    }

    #[test]
    fn f32_storage_bytes_roundtrip_exactly(
        values in prop::collection::vec(-1e30f32..1e30, 1..64),
    ) {
        let dev = Device::cpu();
        let n = values.len();
        let t = Tensor::from_vec(values.clone(), [n], &dev);
        let bytes = t.storage().to_bytes().expect("numeric");
        prop_assert_eq!(t.storage().decode_bytes(&bytes), values);
    }

    #[test]
    fn cpu_target_roundtrips_arbitrary_payloads(
        payload in prop::collection::vec(any::<u8>(), 0..512),
        stamp in 1u64..1_000_000,
    ) {
        let target = ssdtrain::CpuTarget::new(1 << 20);
        let key = ssdtrain::id::TensorKey { stamp, shape: vec![payload.len()] };
        target.write(&key, Some(&payload), payload.len() as u64).expect("fits");
        prop_assert_eq!(target.read(&key).expect("present").expect("payload"), payload);
        target.remove(&key);
        prop_assert!(target.read(&key).is_err());
    }
}

// ---------------------------------------------------------------------
// Adaptive planner
// ---------------------------------------------------------------------

fn uniform_profile(n: usize, bytes: u64, secs: f64) -> StepProfile {
    StepProfile {
        modules: (0..n)
            .map(|i| ModuleProfile {
                path: format!("m{i}"),
                offload_bytes: bytes,
                fwd_secs: secs,
                store_secs: 0.0,
                load_secs: 0.0,
            })
            .collect(),
        fwd_total_secs: secs * n as f64,
        fwd_io_bytes: bytes * n as u64,
        fwd_io_secs: 0.0,
    }
}

proptest! {
    #[test]
    fn lower_bandwidth_never_offloads_more(
        n in 2usize..12,
        bytes in 1_000_000u64..1_000_000_000,
        secs in 0.001f64..1.0,
        bw_hi in 1e6f64..1e12,
        ratio in 0.05f64..1.0,
    ) {
        let profile = uniform_profile(n, bytes, secs);
        let hi = AdaptivePlan::decide(&profile, bw_hi, 2.0);
        let lo = AdaptivePlan::decide(&profile, bw_hi * ratio, 2.0);
        // Keeping is monotone: whatever the high-bandwidth plan keeps,
        // the low-bandwidth plan keeps too.
        for kept in &hi.keep_paths {
            prop_assert!(lo.keeps(kept), "hi keeps {kept} but lo does not");
        }
        match (hi.last_offloaded, lo.last_offloaded) {
            (Some(a), Some(b)) => prop_assert!(b <= a),
            (None, Some(_)) => prop_assert!(false, "lo offloads though hi cannot"),
            _ => {}
        }
    }

    #[test]
    fn planner_always_keeps_the_final_module(
        n in 1usize..10,
        bytes in 1u64..1_000_000_000,
        bw in 1.0f64..1e13,
    ) {
        let profile = uniform_profile(n, bytes, 0.01);
        let plan = AdaptivePlan::decide(&profile, bw, 2.0);
        let last = format!("m{}", n - 1);
        prop_assert!(plan.keeps(&last), "{}", last);
    }
}

// ---------------------------------------------------------------------
// Numeric/symbolic agreement
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn symbolic_shapes_match_numeric_shapes(
        b in 1usize..3,
        s in 1usize..6,
        h_half in 1usize..5,
    ) {
        let h = h_half * 2;
        let num = Device::cpu();
        let sym = Device::symbolic();
        let mut rng = Prng::seed_from_u64(1);
        let xn = Tensor::randn([b, s, h], 1.0, &mut rng, &num);
        let xs = Tensor::zeros([b, s, h], &sym);
        let wn = Tensor::randn([h, 2 * h], 1.0, &mut rng, &num);
        let ws = Tensor::zeros([h, 2 * h], &sym);
        let (mn2, ms2) = (xn.matmul(&wn), xs.matmul(&ws));
        prop_assert_eq!(mn2.dims(), ms2.dims());
        let (gn, gs) = (xn.gelu(), xs.gelu());
        prop_assert_eq!(gn.dims(), gs.dims());
        let (sn, ss) = (xn.softmax_last(), xs.softmax_last());
        prop_assert_eq!(sn.dims(), ss.dims());
        let (yn, mn, rn) = xn.layernorm(
            &Tensor::ones([h], &num),
            &Tensor::zeros([h], &num),
            1e-5,
        );
        let (ys, ms, rs) = xs.layernorm(
            &Tensor::ones([h], &sym),
            &Tensor::zeros([h], &sym),
            1e-5,
        );
        prop_assert_eq!(yn.dims(), ys.dims());
        prop_assert_eq!(mn.dims(), ms.dims());
        prop_assert_eq!(rn.dims(), rs.dims());
    }

    #[test]
    fn storage_accounting_matches_numel_times_width(
        dims in prop::collection::vec(1usize..6, 1..4),
    ) {
        #[derive(Default)]
        struct Sum(std::sync::atomic::AtomicU64);
        impl MemTracker for Sum {
            fn on_alloc(&self, b: u64, _c: MemClass) {
                self.0.fetch_add(b, std::sync::atomic::Ordering::Relaxed);
            }
            fn on_free(&self, _b: u64, _c: MemClass) {}
        }
        let dev = Device::cpu();
        let tracker = Arc::new(Sum::default());
        dev.set_tracker(tracker.clone());
        let t = Tensor::zeros(dims.clone(), &dev);
        let expect = dims.iter().product::<usize>() as u64 * 4; // F32
        prop_assert_eq!(t.bytes(), expect);
        prop_assert_eq!(tracker.0.load(std::sync::atomic::Ordering::Relaxed), expect);
        dev.clear_tracker();
    }
}

// ---------------------------------------------------------------------
// Zero-copy I/O path: pinned arena, write coalescer, group prefetch
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn arena_slabs_never_alias_and_conserve_bytes(
        ops in prop::collection::vec((1u64..1_000_000, any::<bool>()), 1..60),
    ) {
        use ssdtrain_simhw::BufferArena;
        let arena = BufferArena::new();
        let mut held = Vec::new();
        for (len, release_first) in ops {
            if release_first && !held.is_empty() {
                let slab = held.remove(held.len() / 2);
                prop_assert!(arena.release(slab));
                // Double release is inert: the accounting must not move.
                let before = arena.stats();
                prop_assert!(!arena.release(slab));
                prop_assert_eq!(arena.stats(), before);
            }
            let slab = arena.acquire(len).expect("non-zero request");
            prop_assert!(slab.class_bytes >= slab.len);
            prop_assert_eq!(slab.len, len);
            held.push(slab);
            // No two live slabs overlap, even across class reuse.
            let mut ranges = arena.live_ranges();
            ranges.sort_by_key(|r| r.start);
            for w in ranges.windows(2) {
                prop_assert!(w[0].end <= w[1].start, "aliasing: {:?} vs {:?}", &w[0], &w[1]);
            }
        }
        // Conservation: acquired - released == in use == what we hold.
        let stats = arena.stats();
        prop_assert_eq!(stats.in_use_bytes, held.iter().map(|s| s.len).sum::<u64>());
        prop_assert_eq!(stats.acquired_bytes - stats.released_bytes, stats.in_use_bytes);
        prop_assert!(stats.high_water_bytes >= stats.in_use_bytes);
        for slab in held.drain(..) {
            prop_assert!(arena.release(slab));
        }
        let stats = arena.stats();
        prop_assert_eq!(stats.acquired_bytes, stats.released_bytes);
        prop_assert_eq!(stats.in_use_bytes, 0);
    }

    #[test]
    fn coalescer_conserves_bytes_per_tier_and_class(
        ops in prop::collection::vec(
            (0usize..3, 1u64..4_000_000, 0usize..3, any::<bool>()),
            1..80,
        ),
        segment in 1u64..8_000_000,
    ) {
        use ssdtrain::{OffloadClass, SealedSegment, WriteCoalescer};
        use std::collections::BTreeMap;
        let stack = TierStack::new(vec![
            Tier::new("a", Arc::new(CpuTarget::new(1 << 30)), 0),
            Tier::new("b", Arc::new(CpuTarget::new(1 << 30)), 1),
            Tier::new("c", Arc::new(CpuTarget::new(1 << 30)), 2),
        ]);
        let tiers = stack.tier_ids();
        let mut c = WriteCoalescer::new(segment);
        // Every staged record, by id, with the tier, class and bytes it
        // was staged with; a sealed or evicted entry takes its record
        // out, so each comes back exactly once.
        let mut open = BTreeMap::new();
        let (mut staged_bytes, mut sealed_bytes, mut evicted_bytes) = (0u64, 0u64, 0u64);
        let check_sealed =
            |seg: &SealedSegment, open: &mut BTreeMap<u64, _>| -> Result<u64, String> {
                prop_assert_eq!(
                    seg.entries.iter().map(|e| e.bytes).sum::<u64>(),
                    seg.total_bytes()
                );
                for e in &seg.entries {
                    let staged = open.remove(&e.record);
                    prop_assert_eq!(staged, Some((seg.tier, e.class, e.bytes)));
                }
                Ok(seg.total_bytes())
            };
        for (i, (t, bytes, class, evict_one)) in ops.iter().enumerate() {
            let tier = tiers[*t];
            let class = OffloadClass::ALL[*class];
            let record = i as u64;
            open.insert(record, (tier, class, *bytes));
            staged_bytes += bytes;
            if let Some(seg) = c.stage(tier, record, *bytes, class) {
                // Only the tier that just filled seals.
                prop_assert_eq!(seg.tier, tier);
                prop_assert!(seg.total_bytes() >= segment);
                sealed_bytes += check_sealed(&seg, &mut open)?;
            }
            if *evict_one && !open.is_empty() {
                let (&er, &(et, _, _)) = open.iter().nth(open.len() / 2).expect("non-empty");
                let entry = c.evict(et, er).expect("staged entry evicts");
                prop_assert_eq!(open.remove(&er), Some((et, entry.class, entry.bytes)));
                evicted_bytes += entry.bytes;
                // A second eviction of the same record is inert.
                prop_assert!(c.evict(et, er).is_none());
            }
        }
        // Flush the tails: staged == sealed + evicted, nothing is left
        // open, and every staged record came back exactly once.
        for seg in c.seal_all() {
            sealed_bytes += check_sealed(&seg, &mut open)?;
        }
        prop_assert_eq!(c.total_open_bytes(), 0);
        prop_assert_eq!(staged_bytes, sealed_bytes + evicted_bytes);
        prop_assert!(open.is_empty(), "records never returned: {:?}", open.keys());
    }
}

proptest! {
    // Whole-session property: a handful of cases is plenty (each runs
    // two numeric steps).
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn group_prefetch_never_loads_a_group_twice(
        group in 1usize..4,
        depth in 1usize..4,
        seed in 0u64..1_000,
    ) {
        use ssdtrain::{TensorCacheConfig, TraceSink};
        use ssdtrain_models::ModelConfig;
        use ssdtrain_train::{OffloadBackend, SessionConfig, TrainSession};
        let mut cache = TensorCacheConfig::offload_everything();
        cache.prefetch_group_modules = group;
        cache.prefetch_depth = depth;
        let sink = TraceSink::enabled();
        let cfg = SessionConfig::builder()
            .model(ModelConfig::tiny_gpt())
            .batch_size(2)
            .cache(cache)
            .seed(seed)
            .backend(OffloadBackend::Ssd)
            .trace(sink.clone())
            .build()
            .expect("valid config");
        let mut s = TrainSession::new(cfg).expect("session");
        for _ in 0..2 {
            let m = s.run_step().expect("step").offload;
            prop_assert!(m.prefetch_groups > 0, "group prefetch must engage");
        }
        // Per step, each group index is fetched at most once.
        let mut seen = std::collections::HashSet::new();
        for e in sink.events().iter().filter(|e| e.name == "prefetch.group") {
            let gidx = e.arg_u64("group").expect("prefetch.group group arg");
            prop_assert!(
                seen.insert((e.step, gidx)),
                "group {gidx} fetched twice in step {}", e.step
            );
        }
        prop_assert!(!seen.is_empty());
    }
}

// ---------------------------------------------------------------------
// Group look-ahead
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A synthetic step through the hook protocol: module `i` saves one
    /// tensor of `numels[i]` elements — and, where `unread[i]`, a second
    /// one backward never asks for, which rides its group's prefetch
    /// and is released unread — and takes 1 ms each way; the last
    /// `kept` modules are kept by plan. Whatever the sizes, the cut-off
    /// and the links, the look-ahead never lifts activation memory above
    /// the level backward began at: it stays under that level plus what
    /// the `prefetch_depth` floor may hold in flight, and under the
    /// level itself whenever the floor never had to overdraw — then the
    /// step's peak is forward's.
    #[test]
    fn group_lookahead_never_lifts_memory_above_backward_start(
        numels in prop::collection::vec(256usize..16_384, 2..24),
        unread in prop::collection::vec(any::<bool>(), 24),
        kept_frac in 0.0f64..1.0,
        group in 1usize..4,
        depth in 1usize..4,
        write_bps in prop_oneof![Just(1e12f64), Just(32e6f64), Just(8e6f64)],
        read_bps in prop_oneof![Just(1e9f64), Just(16e6f64)],
    ) {
        use ssdtrain::{TensorCache, TensorCacheConfig, TraceSink};
        use ssdtrain_autograd::{ModuleHooks, Packed, Phase, SavedTensorHooks, ScopeInfo};

        let kept = (numels.len() as f64 * kept_frac) as usize;
        let offloaded = numels.len() - kept;
        let clock = SimClock::new();
        let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
        let dev = Device::cpu();
        dev.set_tracker(mem.clone());
        let cache = TensorCache::with_tiers(
            TensorCacheConfig {
                min_offload_numel: 0,
                adaptive: false,
                prefetch_group_modules: group,
                prefetch_depth: depth,
                ..TensorCacheConfig::default()
            },
            Arc::new(TierStack::single(Arc::new(CpuTarget::new(1 << 40)))),
            IoEngine::new(clock.clone(), write_bps, read_bps),
            mem.clone(),
        );
        let sink = TraceSink::enabled();
        cache.set_trace(sink.clone());
        let scopes: Vec<ScopeInfo> = (0..numels.len())
            .map(|i| ScopeInfo { path: format!("m{i}"), seq: i as u64 + 1, micro_batch: 0 })
            .collect();
        cache.set_plan(AdaptivePlan {
            keep_paths: scopes[offloaded..].iter().map(|s| s.path.clone()).collect(),
            ..AdaptivePlan::default()
        });

        cache.begin_step();
        cache.phase_changed(Phase::Forward);
        let mut saved: Vec<(Packed, Option<Packed>)> = Vec::new();
        for (i, scope) in scopes.iter().enumerate() {
            cache.forward_pre(scope);
            let read = cache.pack(&Tensor::zeros([numels[i]], &dev));
            let spare = unread[i].then(|| cache.pack(&Tensor::zeros([numels[i]], &dev)));
            saved.push((read, spare));
            clock.advance_by(1e-3);
            cache.forward_post(scope);
        }
        cache.prefetch_last_module();
        cache.phase_changed(Phase::Backward);
        let announced = clock.now();
        for scope in scopes.iter().rev() {
            cache.backward_pre(scope);
            let packed = saved.pop().expect("one entry a module");
            let tensor = cache.unpack(&packed.0);
            clock.advance_by(1e-3);
            drop((tensor, packed));
            cache.backward_post(scope);
        }
        cache.wait_io();

        // Commits are lazy, so the timeline is complete only now.
        let timeline = mem.timeline();
        let start = timeline.iter().take_while(|p| p.time <= announced).last();
        let bound = start.map_or(0, |p| p.activations);
        let peak_between = |from: SimTime, to: SimTime| {
            let window = timeline.iter().filter(|p| p.time >= from && p.time <= to);
            window.map(|p| p.activations).max().unwrap_or(0)
        };
        let after = peak_between(announced, clock.now());
        // The most `depth` consecutive record-holding groups hold.
        let saves = |i: usize| 1 + u64::from(unread[i]);
        let bytes: Vec<u64> = (0..offloaded).map(|i| numels[i] as u64 * 4 * saves(i)).collect();
        let groups: Vec<u64> = bytes.chunks(group).map(|g| g.iter().sum()).collect();
        let floor = groups.windows(depth.min(groups.len()).max(1)).map(|w| w.iter().sum());
        let floor: u64 = floor.max().unwrap_or(0);
        prop_assert!(
            after <= bound + floor,
            "{after} B after the announcement, {bound} B at it, floor {floor} B"
        );
        let events = sink.events();
        let arg = |e: &ssdtrain::TraceEvent, key| e.arg_u64(key).expect("prefetch.group arg");
        let mut issued = events.iter().filter(|e| e.name == "prefetch.group");
        if issued.all(|e| arg(e, "reload_bytes") <= arg(e, "headroom")) {
            prop_assert!(after <= bound, "nothing overdrew, yet {bound} B rose to {after} B");
            let forward = peak_between(SimTime::ZERO, announced);
            prop_assert_eq!(mem.peak_activations(), forward);
        }
        cache.flush();
        prop_assert_eq!(mem.resident(MemClass::Activation), 0);
    }
}
