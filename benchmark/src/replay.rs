//! The hook-protocol replay rig: a hand-built [`TensorCache`] over a
//! DRAM front tier and a file-backed SSD tier, driven through the same
//! public hooks the autograd engine calls — no model, no kernels. The
//! cache, coalescer, tier stack, targets and `Storage::to_bytes` do
//! nearly all the work, so a change to the store/load path shows here
//! undiluted.
//!
//! Only time and allocations *inside* public calls are charged to the
//! step; payload generation and checksum verification are the harness's
//! own work and stay outside.

use crate::hostcost::AllocSnapshot;
use crate::spans::{self, SharedLog, Span, SpanLog, StepSummary};
use ssdtrain::id::TensorKey;
use ssdtrain::{
    BatchItem, CpuTarget, IoEngine, OffloadClass, OffloadStats, OffloadTarget, SsdTarget,
    StateSlot, TensorCache, TensorCacheConfig, Tier, TierLink, TierStack, TraceSink, WearMeter,
};
use ssdtrain_autograd::{ModuleHooks, Packed, Phase, SavedTensorHooks, ScopeInfo};
use ssdtrain_simhw::{GpuMemory, SimClock, SystemConfig};
use ssdtrain_tensor::{Device, Prng, Tensor};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// "Layers" per replay step.
pub const LAYERS: usize = 24;
/// Saved tensors per layer: 2 MiB, 2 MiB, 512 KiB, 64 KiB of F32.
pub const SHAPES: [[usize; 2]; 4] = [[512, 1024], [512, 1024], [256, 512], [128, 128]];
/// The per-layer gradient slot: 512 KiB of F32.
const GRAD_SHAPE: [usize; 2] = [256, 512];
/// DRAM front tier capacity.
pub const FRONT_BYTES: u64 = 32 << 20;
/// Coalescer segment size.
pub const SEGMENT_BYTES: u64 = 8 << 20;
/// Simulated compute per layer: forward, and backward at the usual 2×.
const FWD_LAYER_SECS: f64 = 250e-6;
const BWD_LAYER_SECS: f64 = 500e-6;
/// Per-store-job submission cost and per-write-op media overhead, so
/// that job counts and write amplification register on the rig.
const STORE_JOB_OVERHEAD_SECS: f64 = 20e-6;
const SSD_WRITE_OVERHEAD_BYTES: u64 = 16 << 10;

/// Bytes one step packs for offload, each way, before dedup and
/// forwarding take their share.
pub fn payload_bytes_per_step() -> u64 {
    let per_layer: usize = SHAPES.iter().map(|s| s[0] * s[1] * 4).sum();
    (per_layer * LAYERS) as u64
}

// ---------------------------------------------------------------------
// TimedTarget
// ---------------------------------------------------------------------

/// What a [`TimedTarget`] saw, cumulatively.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TargetStats {
    /// `write` calls.
    pub write_calls: u64,
    /// `write_batch` calls.
    pub write_batch_calls: u64,
    /// Members across all `write_batch` calls.
    pub batch_members: u64,
    /// `read` calls.
    pub read_calls: u64,
    /// Nanoseconds inside `write` and `write_batch`.
    pub write_ns: u64,
    /// Nanoseconds inside `read`.
    pub read_ns: u64,
    /// Payload bytes handed to `write` and `write_batch`.
    pub written_bytes: u64,
    /// Payload bytes `read` returned.
    pub read_bytes: u64,
    /// Bytes requested from the allocator inside `read`.
    pub read_alloc_bytes: u64,
}

impl TargetStats {
    /// Field-wise `self − earlier`.
    pub fn since(self, e: TargetStats) -> TargetStats {
        TargetStats {
            write_calls: self.write_calls - e.write_calls,
            write_batch_calls: self.write_batch_calls - e.write_batch_calls,
            batch_members: self.batch_members - e.batch_members,
            read_calls: self.read_calls - e.read_calls,
            write_ns: self.write_ns - e.write_ns,
            read_ns: self.read_ns - e.read_ns,
            written_bytes: self.written_bytes - e.written_bytes,
            read_bytes: self.read_bytes - e.read_bytes,
            read_alloc_bytes: self.read_alloc_bytes - e.read_alloc_bytes,
        }
    }

    /// Field-wise sum.
    pub fn plus(self, o: TargetStats) -> TargetStats {
        TargetStats {
            write_calls: self.write_calls + o.write_calls,
            write_batch_calls: self.write_batch_calls + o.write_batch_calls,
            batch_members: self.batch_members + o.batch_members,
            read_calls: self.read_calls + o.read_calls,
            write_ns: self.write_ns + o.write_ns,
            read_ns: self.read_ns + o.read_ns,
            written_bytes: self.written_bytes + o.written_bytes,
            read_bytes: self.read_bytes + o.read_bytes,
            read_alloc_bytes: self.read_alloc_bytes + o.read_alloc_bytes,
        }
    }
}

/// An [`OffloadTarget`] decorator that times and counts every device
/// call and, in a traced run, records each as a child span of whichever
/// cache call issued it.
pub struct TimedTarget {
    inner: Arc<dyn OffloadTarget>,
    log: Option<SharedLog>,
    stats: Mutex<TargetStats>,
}

fn count_entries(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |d| d.count() as u64)
}

impl TimedTarget {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn OffloadTarget>, log: Option<SharedLog>) -> TimedTarget {
        TimedTarget {
            inner,
            log,
            stats: Mutex::new(TargetStats::default()),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> TargetStats {
        *self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn update(&self, f: impl FnOnce(&mut TargetStats)) {
        f(&mut self.stats.lock().unwrap_or_else(|p| p.into_inner()));
    }
}

impl OffloadTarget for TimedTarget {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn write(&self, key: &TensorKey, data: Option<&[u8]>, len: u64) -> io::Result<()> {
        let t0 = Instant::now();
        let out = spans::spanned(self.log.as_ref(), "write", "target", || {
            self.inner.write(key, data, len)
        });
        let ns = t0.elapsed().as_nanos() as u64;
        self.update(|s| {
            s.write_calls += 1;
            s.write_ns += ns;
            s.written_bytes += len;
        });
        out
    }

    fn read(&self, key: &TensorKey) -> io::Result<Option<Vec<u8>>> {
        let a0 = AllocSnapshot::now();
        let t0 = Instant::now();
        let out = spans::spanned(self.log.as_ref(), "read", "target", || self.inner.read(key));
        let ns = t0.elapsed().as_nanos() as u64;
        let alloc = AllocSnapshot::now().since(a0).bytes;
        let got = match &out {
            Ok(Some(bytes)) => bytes.len() as u64,
            _ => 0,
        };
        self.update(|s| {
            s.read_calls += 1;
            s.read_ns += ns;
            s.read_bytes += got;
            s.read_alloc_bytes += alloc;
        });
        out
    }

    fn remove(&self, key: &TensorKey) {
        spans::spanned(self.log.as_ref(), "remove", "target", || {
            self.inner.remove(key)
        });
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn wear_fraction(&self) -> f64 {
        self.inner.wear_fraction()
    }

    fn write_batch(&self, items: &[BatchItem<'_>]) -> io::Result<()> {
        let t0 = Instant::now();
        let out = spans::spanned(self.log.as_ref(), "write_batch", "target", || {
            self.inner.write_batch(items)
        });
        let ns = t0.elapsed().as_nanos() as u64;
        let bytes: u64 = items.iter().map(|(_, _, len)| *len).sum();
        self.update(|s| {
            s.write_batch_calls += 1;
            s.batch_members += items.len() as u64;
            s.write_ns += ns;
            s.written_bytes += bytes;
        });
        out
    }

    fn wear_snapshot(&self) -> Option<WearMeter> {
        self.inner.wear_snapshot()
    }
}

// ---------------------------------------------------------------------
// The rig
// ---------------------------------------------------------------------

/// Two sums over a payload's bit patterns; every tensor carries a unique
/// tag in its first element, so a swapped or stale payload shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(u64, u64);

/// Checksum of `data`'s bits.
pub fn checksum(data: &[f32]) -> Checksum {
    let (mut a, mut b) = (0u64, 0u64);
    for (i, x) in data.iter().enumerate() {
        let bits = u64::from(x.to_bits());
        a = a.wrapping_add(bits);
        b = b.wrapping_add(bits * ((i as u64 & 0xff) | 1));
    }
    Checksum(a, b)
}

fn tensor_checksum(t: &Tensor) -> Option<Checksum> {
    t.storage().with_data(checksum)
}

/// Charges wall time and allocator traffic of public calls to the step.
struct Meter<'a> {
    log: Option<&'a SharedLog>,
    ns: u64,
    allocs: AllocSnapshot,
}

impl Meter<'_> {
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.log.map(|l| spans::lock(l).enter(name, "cache"));
        let a0 = AllocSnapshot::now();
        let t0 = Instant::now();
        let out = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        let d = AllocSnapshot::now().since(a0);
        self.allocs.calls += d.calls;
        self.allocs.bytes += d.bytes;
        if let (Some(l), Some(id)) = (self.log, id) {
            spans::lock(l).exit(id);
        }
        out
    }
}

/// Everything one replay step produced.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Wall nanoseconds inside public calls.
    pub wall_ns: u64,
    /// Allocator traffic inside public calls.
    pub allocs: AllocSnapshot,
    /// Simulated clock at the end of `flush`.
    pub sim_step_secs: f64,
    /// Simulated seconds the step stalled on state-slot loads.
    pub state_stall_secs: f64,
    /// `GpuMemory::peak_activations`.
    pub act_peak_bytes: u64,
    /// `SsdTarget::bytes_written` delta.
    pub ssd_written_bytes: u64,
    /// The cache's counters for the step.
    pub stats: OffloadStats,
    /// Memory-timeline points the step produced.
    pub timeline_points: usize,
    /// `pack` calls made.
    pub packs: u64,
    /// Device-call counters of both tiers, for this step.
    pub target: TargetStats,
    /// The SSD tier's share of those up to the end of the forward pass.
    pub ssd_forward: TargetStats,
    /// Files the forward pass left in the SSD spill directory.
    pub ssd_forward_files: u64,
    /// Span totals (traced rigs only).
    pub spans: Option<StepSummary>,
    /// Output checks that failed; empty on a good step.
    pub failures: Vec<String>,
}

impl StepReport {
    /// `offload.stall + store_stall + state stall`.
    pub fn sim_exposed_io_secs(&self) -> f64 {
        self.stats.stall_secs + self.stats.store_stall_secs + self.state_stall_secs
    }
}

/// The replay rig (see module docs).
pub struct ReplayRig {
    clock: SimClock,
    mem: Arc<GpuMemory>,
    dev: Device,
    cache: Arc<TensorCache>,
    front: Arc<TimedTarget>,
    ssd: Arc<TimedTarget>,
    ssd_dir: PathBuf,
    sink: TraceSink,
    log: Option<SharedLog>,
    templates: Vec<Vec<f32>>,
    grad_template: Vec<f32>,
    step: u32,
    next_seq: u64,
    last_spans: Vec<Span>,
}

fn unique_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ssdtrain-replay-{}-{n}", std::process::id()))
}

impl ReplayRig {
    /// Builds the rig; payload templates derive from `seed`. A traced rig
    /// gets an enabled [`TraceSink`] and records wall spans.
    ///
    /// # Errors
    /// Returns an error if the spill directory cannot be created.
    pub fn new(seed: u64, traced: bool) -> io::Result<ReplayRig> {
        let sys = SystemConfig::dac_testbed();
        let clock = SimClock::new();
        let mem = Arc::new(GpuMemory::new(clock.clone(), sys.gpu.memory_bytes));
        let dev = Device::cpu();
        dev.set_tracker(mem.clone());
        let log = traced.then(SpanLog::shared);
        let sink = if traced {
            TraceSink::enabled()
        } else {
            TraceSink::disabled()
        };

        let ssd_dir = unique_dir();
        let wear = sys
            .ssd_array
            .wear_meter(1.0)
            .with_write_overhead(SSD_WRITE_OVERHEAD_BYTES);
        let front = Arc::new(TimedTarget::new(
            Arc::new(CpuTarget::new(FRONT_BYTES)),
            log.clone(),
        ));
        let ssd = Arc::new(TimedTarget::new(
            Arc::new(SsdTarget::new(&ssd_dir, wear)?),
            log.clone(),
        ));
        let io = IoEngine::tiered_with_bus(
            clock.clone(),
            vec![
                TierLink::new("dram", sys.host_offload_bps(), sys.host_offload_bps()),
                TierLink::new("ssd", sys.offload_write_bps(), sys.offload_read_bps()),
            ],
            sys.pcie_bps,
        );
        io.set_store_job_overhead(STORE_JOB_OVERHEAD_SECS);
        let tiers = TierStack::new(vec![
            Tier::new("dram", front.clone(), 0).with_capacity(FRONT_BYTES),
            Tier::new("ssd", ssd.clone(), 1),
        ]);
        let config = TensorCacheConfig {
            coalesce_segment_bytes: SEGMENT_BYTES,
            prefetch_group_modules: 2,
            prefetch_depth: 2,
            ..TensorCacheConfig::offload_everything()
        };
        let cache = TensorCache::with_tiers(config, Arc::new(tiers), io, mem.clone());
        cache.set_trace(sink.clone());

        let mut rng = Prng::seed_from_u64(seed);
        let mut template = |shape: [usize; 2]| -> Vec<f32> {
            (0..shape[0] * shape[1]).map(|_| rng.next_f32()).collect()
        };
        let templates = SHAPES.iter().map(|s| template(*s)).collect();
        let grad_template = template(GRAD_SHAPE);
        Ok(ReplayRig {
            clock,
            mem,
            dev,
            cache,
            front,
            ssd,
            ssd_dir,
            sink,
            log,
            templates,
            grad_template,
            step: 0,
            next_seq: 0,
            last_spans: Vec::new(),
        })
    }

    /// The rig's trace sink (disabled on an untraced rig).
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// The wall spans of the most recent step (traced rigs only).
    pub fn last_spans(&self) -> &[Span] {
        &self.last_spans
    }

    /// Entries currently in the SSD spill directory.
    pub fn spill_entries(&self) -> u64 {
        count_entries(&self.ssd_dir)
    }

    /// The SSD spill directory.
    pub fn spill_dir(&self) -> &Path {
        &self.ssd_dir
    }

    /// Effective write amplification of the SSD tier.
    pub fn ssd_waf(&self) -> f64 {
        self.ssd.wear_snapshot().map_or(0.0, |w| w.effective_waf())
    }

    fn tensor(&self, template: &[f32], shape: [usize; 2], tag: u32) -> (Tensor, Checksum) {
        let mut data = template.to_vec();
        data[0] = f32::from_bits(0x3f80_0000 | (tag & 0x007f_ffff));
        let sum = checksum(&data);
        (Tensor::from_vec(data, shape, &self.dev), sum)
    }

    /// Runs one step of the protocol (see the module docs and
    /// `benchmark/README.md` for the call sequence).
    pub fn step(&mut self) -> StepReport {
        self.step += 1;
        let step = self.step;
        let cache = self.cache.clone();
        let mut failures = Vec::new();
        let mut verify = |what: &str, layer: usize, got: &Tensor, want: Checksum| {
            if tensor_checksum(got) != Some(want) {
                failures.push(format!(
                    "step {step} layer {layer}: {what} returned other bytes"
                ));
            }
        };
        if let Some(log) = &self.log {
            spans::lock(log).begin_step(step, 2048);
        }
        let ssd0 = self.ssd.stats();
        let target0 = self.front.stats().plus(ssd0);
        let ssd_written0 = self.ssd.bytes_written();
        self.clock.reset();
        self.mem.reset();
        self.sink.next_step();
        let mut m = Meter {
            log: self.log.as_ref(),
            ns: 0,
            allocs: AllocSnapshot::default(),
        };
        let mut packs = 0u64;
        let mut state_stall = 0.0f64;

        m.call("begin_step", || cache.begin_step());
        m.call("phase_changed", || cache.phase_changed(Phase::Forward));
        let mut layers: Vec<(ScopeInfo, Vec<(Packed, Checksum)>)> = Vec::with_capacity(LAYERS);
        for l in 0..LAYERS {
            let scope = ScopeInfo {
                path: format!("model/layer{l}/block"),
                seq: self.next_seq,
                micro_batch: 0,
            };
            self.next_seq += 1;
            m.call("forward_pre", || cache.forward_pre(&scope));
            let mut packed = Vec::with_capacity(SHAPES.len() + 1);
            for (i, shape) in SHAPES.iter().enumerate() {
                let tag = step.wrapping_mul(1000) + (l * 8 + i) as u32;
                let (t, sum) = self.tensor(&self.templates[i], *shape, tag);
                let p = m.call("pack", || cache.pack(&t));
                packs += 1;
                if i == 0 {
                    // The same tensor saved twice by one module: dedup.
                    let again = m.call("pack", || cache.pack(&t));
                    packs += 1;
                    packed.push((again, sum));
                }
                drop(t);
                if i == SHAPES.len() - 1 {
                    // Consumed straight after its save: forwarding, and
                    // the store that never needs to happen.
                    let back = m.call("unpack", || cache.unpack(&p));
                    verify("forwarded unpack", l, &back, sum);
                }
                packed.push((p, sum));
            }
            self.clock.advance_by(FWD_LAYER_SECS);
            m.call("forward_post", || cache.forward_post(&scope));
            layers.push((scope, packed));
        }
        m.call("prefetch_last_module", || cache.prefetch_last_module());
        m.call("drain_stores", || cache.drain_stores());
        // Every forward store is on its device and none has been read back
        // and removed: what the segments left on disk. One listing a step,
        // outside every metered call.
        let ssd_forward = self.ssd.stats().since(ssd0);
        let ssd_forward_files = count_entries(&self.ssd_dir);
        m.call("phase_changed", || cache.phase_changed(Phase::Backward));

        // One gradient slot per layer, written while the activations of
        // the next layer down are being read; the previous layer's slot
        // is read back and released beside it. The extra turn after the
        // last layer settles the last slot.
        let mut pending: Option<(StateSlot, Tensor, Checksum, usize)> = None;
        for layer in layers.iter().enumerate().rev().map(Some).chain([None]) {
            let mut written = None;
            if let Some((l, (scope, packed))) = layer {
                m.call("backward_pre", || cache.backward_pre(scope));
                for (p, sum) in packed.iter().rev() {
                    let t = m.call("unpack", || cache.unpack(p));
                    verify("unpack", l, &t, *sum);
                }
                let tag = step.wrapping_mul(1000) + (l * 8 + 7) as u32;
                let (grad, sum) = self.tensor(&self.grad_template, GRAD_SHAPE, tag);
                let slot = m.call("offload_state", || {
                    cache.offload_state(&grad, OffloadClass::Gradient)
                });
                written = slot.map(|s| (s, grad, sum, l));
            }
            if let Some((slot, grad, sum, l)) = pending.take() {
                if let Some(ready) = m.call("load_state", || cache.load_state(slot)) {
                    state_stall += self.clock.advance_to(ready);
                }
                verify("load_state", l, &grad, sum);
                m.call("release_state", || cache.release_state(slot));
            }
            pending = written;
            if let Some((_, (scope, _))) = layer {
                self.clock.advance_by(BWD_LAYER_SECS);
                m.call("backward_post", || cache.backward_post(scope));
            }
        }
        m.call("wait_io", || cache.wait_io());
        m.call("drain_stores", || cache.drain_stores());
        m.call("flush", || cache.flush());

        let stats = cache.stats();
        if let Some(err) = cache.take_error() {
            failures.push(format!("step {step}: offload error: {err}"));
        }
        if stats.degraded() {
            failures.push(format!("step {step}: recovery engaged on a healthy device"));
        }
        let (wall_ns, allocs) = (m.ns, m.allocs);
        let spans = self.log.as_ref().map(|log| {
            let (summary, raw) = spans::lock(log).take_step();
            self.last_spans = raw;
            summary
        });
        StepReport {
            wall_ns,
            allocs,
            sim_step_secs: self.clock.now().as_secs(),
            state_stall_secs: state_stall,
            act_peak_bytes: self.mem.peak_activations(),
            ssd_written_bytes: self.ssd.bytes_written() - ssd_written0,
            stats,
            timeline_points: self.mem.timeline().len(),
            packs,
            target: self.front.stats().plus(self.ssd.stats()).since(target0),
            ssd_forward,
            ssd_forward_files,
            spans,
            failures,
        }
    }
}

impl Drop for ReplayRig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.ssd_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip_bit_exactly_through_both_tiers() {
        let mut rig = ReplayRig::new(7, true).expect("spill dir");
        for _ in 0..2 {
            let r = rig.step();
            assert!(r.failures.is_empty(), "{:?}", r.failures);
            let tiers = &r.stats.tiers;
            assert_eq!(tiers.len(), 2);
            assert!(tiers[0].bytes_written > 0, "front tier saw no bytes");
            assert!(tiers[1].bytes_written > 0, "ssd tier saw no bytes");
            assert!(tiers[0].bytes_read > 0 && tiers[1].bytes_read > 0);
            assert!(r.stats.dedup_hits as usize >= LAYERS);
            assert!(r.stats.forwarded as usize >= LAYERS);
            assert!(r.stats.coalesce_segments > 0);
            assert_eq!(rig.spill_entries(), 0, "flush leaves no spill files");
        }
        let dir = rig.spill_dir().to_path_buf();
        drop(rig);
        assert!(!dir.exists());
    }

    #[test]
    fn a_segment_is_one_file_per_member_today() {
        let mut rig = ReplayRig::new(11, true).expect("spill dir");
        let r = rig.step();
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let ssd = r.ssd_forward;
        assert!(ssd.write_batch_calls > 0);
        assert_eq!(ssd.write_calls, 0, "the forward pass stores by segment");
        assert_eq!(r.ssd_forward_files, ssd.batch_members);
    }

    #[test]
    fn timed_target_forwards_the_wear_snapshot() {
        let dir = unique_dir();
        let wear = WearMeter::new(1e12, 1.0).with_write_overhead(4096);
        let inner = Arc::new(SsdTarget::new(&dir, wear).expect("dir"));
        let timed = TimedTarget::new(inner, None);
        let key = TensorKey {
            stamp: 1,
            shape: vec![4],
        };
        timed.write(&key, Some(&[1, 2, 3, 4]), 4).expect("write");
        assert_eq!(timed.read(&key).expect("read"), Some(vec![1, 2, 3, 4]));
        let snap = timed.wear_snapshot().expect("ssd has a wear meter");
        assert_eq!(snap.host_bytes, 4);
        assert_eq!(snap.media_bytes, 4 + 4096);
        let s = timed.stats();
        assert_eq!((s.write_calls, s.read_calls, s.read_bytes), (1, 1, 4));
        assert!(s.read_alloc_bytes >= 4);
        timed.remove(&key);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
