//! The tensor cache (paper Section 3.2, Algorithms 1–2, Figure 6).
//!
//! The cache registers itself as the autograd engine's saved-tensor hooks
//! and module hooks. When an operator saves an activation, `pack`
//! decides — parameter? small? kept module? backward phase? — and either
//! leaves the tensor on the graph or replaces it with an opaque record id
//! while a store job streams the bytes to the offload target. `unpack`
//! resolves ids back, *forwarding* tensors whose store is still in
//! flight and blocking (simulated-clock stall) on reloads that have not
//! arrived — that stall is exactly the exposed I/O latency the paper
//! evaluates (Q1).
//!
//! There is one store path. Every offloaded tensor — an activation, or a
//! gradient / optimizer-state slot from [`TensorCache::offload_state`] —
//! is a `Record` walking `Resident → Staged → Storing → Offloaded →
//! Loading`, and every store job is a sealed segment of such records:
//! with [`TensorCacheConfig::coalesce_segment_bytes`] at 0 a record
//! seals the moment it is staged (a segment of one), otherwise it waits
//! in the [`WriteCoalescer`] for company. Admission, commit-and-recover,
//! forwarding and reload each exist once, for all three classes.
//!
//! Memory-accounting subtlety: an offloaded tensor's GPU memory is freed
//! *when its store completes*, which is in the simulated future at the
//! time we learn it. The cache therefore defers the release and stamps
//! the free event with the store's completion time
//! ([`ssdtrain_simhw::GpuMemory::with_time`]); a tensor that ends up
//! forwarded was never actually released, and no event is emitted.
// ssdtrain-lint: hot-path

use crate::adaptive::{AdaptivePlan, ModuleProfile, StepProfile};
use crate::coalesce::{SealedSegment, WriteCoalescer};
use crate::config::{RecoveryPolicy, TensorCacheConfig, MAX_IO_RETRIES};
use crate::costmodel::CostModel;
use crate::error::OffloadError;
use crate::id::{storage_stamp, tensor_key, TensorKey};
use crate::io::{IoEngine, JobId};
use crate::placement::OffloadClass;
use crate::stats::OffloadStats;
use crate::target::{BatchItem, OffloadTarget};
use crate::tier::{TierId, TierPlacement, TierStack};
use parking_lot::Mutex;
use ssdtrain_autograd::{ModuleHooks, Packed, Phase, SavedTensorHooks, ScopeInfo};
use ssdtrain_simhw::{BufferArena, GpuMemory, PinnedSlab, SimTime};
use ssdtrain_tensor::{MemClass, Tensor};
use ssdtrain_trace::{ArgValue, TraceCategory, TraceSink};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::io;
use std::ops::Range;
use std::sync::Arc;

type RecordId = u64;

/// A segment member on its way to the device: its id and serialised
/// payload (`None` in symbolic execution).
type Payload = (RecordId, Option<Vec<u8>>);

/// The stage kinds the scheduler announces to the cache (the `cmd`
/// argument of the paper's `tc.set_stage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageHint {
    /// A micro-batch is being loaded (switches the cache's records).
    MicroBatchLoad(usize),
    /// A forward pass.
    Forward,
    /// A backward pass.
    Backward,
    /// A communication/boundary stage (gradient reduction etc.).
    Communication,
    /// The optimizer update.
    Optimizer,
}

impl StageHint {
    /// The span name a [`StageScope`] emits for this stage. Only
    /// [`StageHint::MicroBatchLoad`] formats; the fixed stages borrow.
    pub fn trace_label(self) -> Cow<'static, str> {
        match self {
            StageHint::MicroBatchLoad(mb) => format!("stage.load_mb{mb}").into(),
            StageHint::Forward => "stage.forward".into(),
            StageHint::Backward => "stage.backward".into(),
            StageHint::Communication => "stage.comm".into(),
            StageHint::Optimizer => "stage.optimizer".into(),
        }
    }
}

/// The one lifecycle every offloaded tensor follows, whatever its
/// [`OffloadClass`]: `Resident → Staged → Storing → Offloaded → Loading`
/// (and back to `Resident`).
#[derive(Debug, Clone, Copy)]
enum RecState {
    /// In GPU memory (never stored, loaded back, or forwarded).
    Resident,
    /// Waiting for its segment to seal; no store job exists yet and the
    /// data is still resident. Consuming a staged record takes it back
    /// out of the open segment — forwarding that never queued a job.
    Staged,
    /// Member of the sealed segment riding `job`; data still resident
    /// (release deferred to the commit).
    Storing { job: JobId },
    /// On the offload target; GPU memory already freed (at the store's
    /// completion time).
    Offloaded,
    /// Reload in flight; resident from `ready` on.
    Loading { ready: SimTime },
}

/// The module scopes (seq ids) still referencing a record. Almost every
/// record has exactly one — only deduplication adds more — so the first
/// lives inline and the set allocates nothing until a second arrives.
#[derive(Default)]
struct ScopeSet {
    first: Option<u64>,
    more: Vec<u64>,
}

impl ScopeSet {
    fn insert(&mut self, seq: u64) {
        if self.first.is_none() {
            self.first = Some(seq);
        } else if self.first != Some(seq) && !self.more.contains(&seq) {
            self.more.push(seq);
        }
    }

    fn remove(&mut self, seq: u64) {
        if self.first == Some(seq) {
            self.first = self.more.pop();
        } else {
            self.more.retain(|s| *s != seq);
        }
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The earliest scope in forward order: the one profiling charges
    /// the record's transfers to.
    fn min(&self) -> Option<u64> {
        self.more.iter().copied().chain(self.first).min()
    }
}

struct Record {
    key: TensorKey,
    tensor: Tensor,
    bytes: u64,
    class: OffloadClass,
    state: RecState,
    scopes: ScopeSet,
    /// The tier holding (or about to hold) the bytes; demotion moves it.
    tier: TierId,
    /// Pinned staging slab the bytes occupy while a store is staged or
    /// in flight; released exactly once when the staging retires.
    slab: Option<PinnedSlab>,
    /// Whether the tier's device holds an entry under `key` (a write
    /// committed or a demotion landed): a record forwarded before its
    /// store committed has nothing there to remove.
    stored: bool,
    /// Simulated time the record's store drains; a reload can never
    /// complete before it. Zero again after a step boundary (the
    /// optimizer-stage drain barrier guarantees every store landed
    /// before the step ended).
    avail: SimTime,
}

impl Record {
    /// State slots (gradients, optimizer state) survive
    /// [`TensorCache::flush`] and step boundaries, are owned by their
    /// caller rather than by module scopes, and never deduplicate.
    fn is_state(&self) -> bool {
        self.class != OffloadClass::Activation
    }

    /// Whether committing the record's store releases its GPU memory.
    /// Mirrors Python garbage collection (paper Section 3.2): an
    /// activation's memory is reclaimable only once the cache holds the
    /// *last* reference to the storage. If model code still holds the
    /// tensor (e.g. a step input reused across steps), the record simply
    /// stays resident. State slots are always held by their optimizer
    /// and are released regardless.
    fn leaves_at_commit(&self) -> bool {
        self.is_state() || self.tensor.storage().strong_count() == 1
    }
}

/// Opaque handle to an offloaded state tensor (a gradient or optimizer
/// state slot created by [`TensorCache::offload_state`]). Unlike
/// activation records, state slots survive step boundaries: optimizer
/// state lives across steps and is reloaded by the next step's
/// optimizer jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateSlot(RecordId);

/// What a reload is for: decides the counter it lands in and the state
/// the record is left in.
#[derive(Clone, Copy)]
enum Reload {
    /// `unpack` found the bytes offloaded: the caller stalls on them.
    Sync,
    /// Issued ahead of use by the backward prefetcher.
    Prefetch,
    /// [`TensorCache::load_state`]: the caller owns the ready time.
    State,
}

#[derive(Default)]
struct ScopeMeta {
    path: String,
    records: Vec<RecordId>,
    enter: SimTime,
    fwd_secs: f64,
    offload_bytes: u64,
    /// Simulated link occupancy of this module's store jobs.
    store_secs: f64,
    /// Simulated link occupancy of this module's reloads.
    load_secs: f64,
}

/// A sealed segment whose store job is in flight or has landed but is
/// not committed yet.
struct Segment {
    /// The members' range in `State::seg_members`.
    members: Range<usize>,
    /// What [`TensorCache::note_landed`] added to `State::unsettled`
    /// for this segment; the commit takes it back.
    unsettled: u64,
}

/// Where one micro-batch's backward pass stands in the group
/// prefetcher's consumption-ordered walk (see
/// [`TensorCache::look_ahead`]).
#[derive(Clone, Copy)]
struct Lookahead {
    /// Activation bytes resident when the pass was announced — Figure
    /// 7's "beginning of backward" point. Groups beyond the
    /// `prefetch_depth` floor are issued only while their reloads fit
    /// under it.
    bound: u64,
    /// Every group at or above this index was issued or holds no
    /// records; the walk only ever moves it down, so no group loads
    /// twice.
    next: usize,
    /// The group backward is consuming (the lowest one it has entered).
    cur: usize,
}

/// Everything the cache mutates, behind its one lock: the bookkeeping
/// all runs on the training thread (the paper's worker pools only move
/// bytes), so one lock around it is the faithful shape.
struct State {
    records: HashMap<RecordId, Record>,
    by_key: HashMap<TensorKey, RecordId>,
    next_id: RecordId,
    param_stamps: HashSet<u64>,
    /// Innermost-first stack of open forward scopes (seq ids).
    stack: Vec<u64>,
    scopes: HashMap<u64, ScopeMeta>,
    /// Forward order of scope seqs per micro-batch.
    forward_order: HashMap<usize, Vec<u64>>,
    current_mb: usize,
    phase: Phase,
    profiling: bool,
    fwd_start: SimTime,
    fwd_secs: f64,
    /// Sealed segments whose store jobs are in flight — one I/O job, one
    /// device write, recovered as a unit — keyed by job. Removal marks
    /// the segment committed (or cancelled).
    segments: HashMap<JobId, Segment>,
    /// Member ids of every segment sealed this step, back to back.
    seg_members: Vec<RecordId>,
    /// The jobs of those segments in submission order, which on the one
    /// write FIFO is completion order: the stores of everything before
    /// `seg_landed` have landed (see [`TensorCache::note_landed`]).
    seg_jobs: Vec<JobId>,
    seg_landed: usize,
    /// Activation bytes whose store has landed but whose commit — lazy:
    /// it runs when something reaches the record — has not released
    /// them yet. The memory counter over-reads by exactly this much.
    unsettled: u64,
    /// Reused by every commit: the members still riding the job and
    /// their serialised payloads.
    commit_scratch: Vec<Payload>,
    /// Reused by every group request: the group's record ids in the
    /// order backward will read them.
    group_scratch: Vec<RecordId>,
    /// The group prefetcher's walk, per micro-batch with an announced
    /// (or started) backward pass this step.
    lookahead: HashMap<usize, Lookahead>,
    /// The prefetch groups in flight at or ahead of backward's
    /// consumption point, each with its pinned staging slab (`None` for
    /// a group of no bytes); released when consumption moves past the
    /// group.
    group_slabs: HashMap<(usize, usize), Option<PinnedSlab>>,
    /// The write coalescer between `pack` and the per-tier store queues
    /// (unused when [`TensorCacheConfig::coalesce_segment_bytes`] is 0:
    /// every staged record then seals at once, a segment of one).
    coalescer: WriteCoalescer,
    stats: OffloadStats,
    plan: AdaptivePlan,
    /// Per-link store-drain stall time this step (see
    /// [`TensorCache::drain_stores`]); indexed by I/O link.
    link_stalls: Vec<f64>,
    pending_error: Option<OffloadError>,
    trace: TraceSink,
}

impl State {
    fn new(coalesce_segment_bytes: u64) -> State {
        State {
            records: HashMap::new(),
            by_key: HashMap::new(),
            next_id: 0,
            param_stamps: HashSet::new(),
            stack: Vec::new(),
            scopes: HashMap::new(),
            forward_order: HashMap::new(),
            current_mb: 0,
            phase: Phase::Forward,
            profiling: false,
            fwd_start: SimTime::ZERO,
            fwd_secs: 0.0,
            segments: HashMap::new(),
            seg_members: Vec::new(),
            seg_jobs: Vec::new(),
            seg_landed: 0,
            unsettled: 0,
            commit_scratch: Vec::new(),
            group_scratch: Vec::new(),
            lookahead: HashMap::new(),
            group_slabs: HashMap::new(),
            coalescer: WriteCoalescer::new(coalesce_segment_bytes),
            stats: OffloadStats::default(),
            plan: AdaptivePlan::default(),
            link_stalls: Vec::new(),
            pending_error: None,
            trace: TraceSink::disabled(),
        }
    }

    /// Runs `f` on each record id of scope `seq`. The scope's list is
    /// lent out for the walk — nothing on the store or load path edits a
    /// scope's record list — so no copy is made.
    fn for_scope_records(&mut self, seq: u64, mut f: impl FnMut(&mut State, RecordId)) {
        let Some(meta) = self.scopes.get_mut(&seq) else {
            return;
        };
        let ids = std::mem::take(&mut meta.records);
        for &id in &ids {
            f(self, id);
        }
        if let Some(meta) = self.scopes.get_mut(&seq) {
            meta.records = ids;
        }
    }
}

/// The SSDTrain tensor cache.
///
/// One instance serves one (simulated) GPU. Register it on a graph with
/// [`TensorCache::install`].
///
/// # Failure handling
///
/// Offload-target failures (a vanished spill directory, an exhausted
/// host pool, an injected fault) do **not** panic: store failures are
/// recovered per the configured [`RecoveryPolicy`] — the tensor stays
/// resident, optionally re-routed to a fallback target — and load
/// failures are retried and then surfaced as a structured
/// [`OffloadError`] via [`TensorCache::take_error`] at the end of the
/// step. The only remaining hook panic is unpacking an opaque value
/// after its records were released, which is an engine-integration bug
/// rather than a recoverable condition.
///
/// ```
/// use ssdtrain::{CpuTarget, IoEngine, TensorCache, TensorCacheConfig};
/// use ssdtrain_autograd::{ops, Graph, Var};
/// use ssdtrain_simhw::{GpuMemory, SimClock};
/// use ssdtrain_tensor::{Device, Tensor};
/// use std::sync::Arc;
///
/// let clock = SimClock::new();
/// let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 30));
/// let dev = Device::cpu();
/// dev.set_tracker(mem.clone());
/// let io = IoEngine::new(clock, 1e9, 1e9);
/// let cache = TensorCache::new(
///     TensorCacheConfig::offload_everything(),
///     Arc::new(CpuTarget::new(1 << 30)),
///     io,
///     mem,
/// );
/// let graph = Graph::new(&dev, 1);
/// cache.install(&graph);
/// // Saved activations now flow through the cache; training is
/// // numerically unchanged while their memory is reclaimable.
/// let w = Var::new("w", Tensor::from_vec(vec![2.0], [1, 1], &dev));
/// let x = graph.constant(Tensor::from_vec(vec![3.0], [1, 1], &dev));
/// let y = ops::matmul(&graph, &x, &graph.leaf(&w));
/// let loss = ops::mean_all(&graph, &y);
/// graph.backward(&loss);
/// assert_eq!(w.grad().unwrap().to_vec(), vec![3.0]);
/// assert!(cache.stats().store_jobs > 0);
/// ```
pub struct TensorCache {
    config: TensorCacheConfig,
    tiers: Arc<TierStack>,
    io: IoEngine,
    mem: Arc<GpuMemory>,
    /// Pinned host staging arena every offloaded byte passes through —
    /// store staging slabs and group-prefetch landing buffers alike.
    arena: BufferArena,
    /// The cache's one lock. Every public method and hook takes it once
    /// at entry and hands `&mut State` down; private methods never lock,
    /// so re-acquisition is a borrow error, not a deadlock. Layer order
    /// while it is held: cache → {tiers → target, io → {clock, trace},
    /// mem, arena} — nothing below ever calls back up.
    state: Mutex<State>,
}

impl TensorCache {
    /// Creates a cache over a single offload target and its I/O engine —
    /// the flat shape, expressed as a one-tier [`TierStack`]
    /// ([`TierStack::single`]); behavior is identical to the pre-tier
    /// design.
    pub fn new(
        config: TensorCacheConfig,
        target: Arc<dyn OffloadTarget>,
        io: IoEngine,
        mem: Arc<GpuMemory>,
    ) -> Arc<TensorCache> {
        TensorCache::with_tiers(config, Arc::new(TierStack::single(target)), io, mem)
    }

    /// Creates a cache over an ordered tier stack; each tier's transfers
    /// are priced on its [`crate::Tier::link`] of `io` (so build the
    /// engine with [`IoEngine::tiered_with_bus`] and matching link indices).
    pub fn with_tiers(
        config: TensorCacheConfig,
        tiers: Arc<TierStack>,
        io: IoEngine,
        mem: Arc<GpuMemory>,
    ) -> Arc<TensorCache> {
        let state = Mutex::new(State::new(config.coalesce_segment_bytes));
        Arc::new(TensorCache {
            config,
            tiers,
            io,
            mem,
            arena: BufferArena::new(),
            state,
        })
    }

    /// Routes this cache's tensor-lifecycle events into `sink` and wires
    /// the shared [`IoEngine`] to the same sink, so stores, loads,
    /// prefetches, dedup hits, forwarding, stalls, stage spans and
    /// recovery actions all land on one timeline.
    pub fn set_trace(&self, sink: TraceSink) {
        self.io.set_trace(sink.clone());
        self.state.lock().trace = sink;
    }

    /// Installs the secondary target [`RecoveryPolicy::FallbackTarget`]
    /// re-routes refused stores to (typically a [`crate::CpuTarget`]
    /// pinned pool) — expressed as a demotion-only tier appended to the
    /// stack; its loads travel the front tier's simulated link, exactly
    /// as the flat design priced fallback reads.
    pub fn set_fallback_target(&self, target: Arc<dyn OffloadTarget>) {
        self.tiers.push_demotion(target);
    }

    /// Takes the first offload failure recovery could not absorb this
    /// step, if any. The training loop calls this at the step boundary;
    /// under [`RecoveryPolicy::FailStep`] a store failure lands here,
    /// and a permanently failed load lands here under every policy.
    pub fn take_error(&self) -> Option<OffloadError> {
        self.state.lock().pending_error.take()
    }

    /// Registers this cache's hook pairs on `graph` — the
    /// `configure_tensor_cache` of the paper's Algorithm 1.
    pub fn install(self: &Arc<Self>, graph: &ssdtrain_autograd::Graph) {
        graph.set_saved_tensor_hooks(self.clone());
        graph.add_module_hooks(self.clone());
    }

    /// Excludes a parameter (any view of its storage) from offloading
    /// (Algorithm 1 lines 3–4). Linear-layer weight transposes share the
    /// storage stamp, so they are covered automatically (Section 3.3.1).
    pub fn register_parameter(&self, t: &Tensor) {
        let stamp = storage_stamp(t);
        self.state.lock().param_stamps.insert(stamp);
    }

    /// The I/O engine (for end-of-step queries).
    pub fn io(&self) -> &IoEngine {
        &self.io
    }

    /// The tier stack (placement capacities, per-tier counters).
    pub fn tiers(&self) -> &Arc<TierStack> {
        &self.tiers
    }

    /// The front tier's offload target (the single device in flat
    /// configurations).
    pub fn target(&self) -> Arc<dyn OffloadTarget> {
        self.tiers.front_device()
    }

    /// Snapshot of this step's statistics, per-tier counters included.
    /// Tier timing (store-drain stalls, link busy time) is overlaid
    /// from the I/O engine so the snapshot and the trace agree.
    pub fn stats(&self) -> OffloadStats {
        let st = self.state.lock();
        let mut stats = st.stats.clone();
        let arena = self.arena.stats();
        stats.arena_acquired_bytes = arena.acquired_bytes;
        stats.arena_released_bytes = arena.released_bytes;
        stats.arena_high_water_bytes = arena.high_water_bytes;
        stats.arena_footprint_bytes = arena.footprint_bytes;
        stats.arena_slab_reuses = arena.slab_reuses;
        stats.tiers = self.tiers.counters();
        for (tier, counters) in self.tiers.tier_ids().iter().zip(stats.tiers.iter_mut()) {
            let link = self.tiers.link(*tier);
            counters.stall_secs = st.link_stalls.get(link).copied().unwrap_or(0.0);
            counters.write_busy_secs = self.io.write_busy_secs_on(link);
            counters.read_busy_secs = self.io.read_busy_secs_on(link);
        }
        stats
    }

    /// A [`CostModel`] over this cache's links and tiers as currently
    /// priced — what the adaptive budget and the capacity bench price
    /// transfers on without replaying them.
    pub fn cost_model(&self) -> CostModel {
        CostModel::from_parts(&self.io, &self.tiers)
            .with_segment_bytes(self.config.coalesce_segment_bytes)
    }

    /// The pinned staging arena (high-water and reuse telemetry).
    pub fn arena(&self) -> &BufferArena {
        &self.arena
    }

    /// The write coalescer's conservation counters for this step.
    pub fn coalesce_counts(&self) -> crate::coalesce::CoalesceCounts {
        self.state.lock().coalescer.counts()
    }

    /// The adaptive plan currently applied.
    pub fn plan(&self) -> AdaptivePlan {
        self.state.lock().plan.clone()
    }

    /// Overrides the adaptive plan (tests, ablations).
    pub fn set_plan(&self, plan: AdaptivePlan) {
        self.state.lock().plan = plan;
    }

    // ------------------------------------------------------------------
    // Step lifecycle and scheduler hints (Algorithm 1)
    // ------------------------------------------------------------------

    /// Starts a measured step: clears per-step structures, the I/O job
    /// queues and statistics. Call after the runtime's clock was reset.
    pub fn begin_step(&self) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        self.flush_records(st);
        // Leftover records were just flushed against the old queues; new
        // jobs must not queue behind the previous step's transfers.
        self.io.reset();
        // The flush sealed and committed every staged byte; a fresh step
        // starts with fresh conservation counters and a high-water mark
        // tracking only the slabs that survived the boundary.
        st.coalescer = WriteCoalescer::new(self.config.coalesce_segment_bytes);
        self.arena.begin_step();
        st.stack.clear();
        st.scopes.clear();
        st.forward_order.clear();
        st.phase = Phase::Forward;
        st.fwd_start = self.io.clock().now();
        st.fwd_secs = 0.0;
        // Only state slots survived the flush. Their stores drained at
        // the previous step's optimizer barrier; on the fresh clock they
        // are available immediately.
        for rec in st.records.values_mut() {
            rec.avail = SimTime::ZERO;
        }
        st.stats = OffloadStats::default();
        st.link_stalls.clear();
        self.tiers.reset_counters();
        // Failures during the flush above belong to the step that
        // already reported; the new step starts clean.
        st.pending_error = None;
    }

    /// Enables profiling for the next step: every eligible tensor is
    /// offloaded regardless of plan, and per-module transfer sizes and
    /// compute times are collected (Section 3.3.3).
    pub fn begin_profile_step(&self) {
        self.begin_step();
        self.state.lock().profiling = true;
    }

    /// Ends a profiling step: builds the [`StepProfile`], derives the
    /// adaptive plan (when enabled) and applies it to subsequent steps.
    pub fn end_profile_step(&self) -> (StepProfile, AdaptivePlan) {
        let mut st = self.state.lock();
        st.profiling = false;
        if st.fwd_secs == 0.0 {
            // Called at the forward/backward boundary before the
            // phase switch was observed.
            st.fwd_secs = self.io.clock().now().since(st.fwd_start);
        }
        let profile = self.build_profile(&st);
        let plan = self.replan(&mut st, &profile);
        (profile, plan)
    }

    /// Builds a [`StepProfile`] from the current step's scope metadata.
    fn build_profile(&self, st: &State) -> StepProfile {
        let order = st
            .forward_order
            .get(&st.current_mb)
            .cloned()
            .unwrap_or_default();
        let modules: Vec<ModuleProfile> = order
            .iter()
            .filter_map(|seq| {
                let meta = st.scopes.get(seq)?;
                if meta.records.is_empty() {
                    return None;
                }
                Some(ModuleProfile {
                    path: meta.path.clone(),
                    offload_bytes: meta.offload_bytes,
                    fwd_secs: meta.fwd_secs,
                    store_secs: meta.store_secs,
                    load_secs: meta.load_secs,
                })
            })
            .collect();
        StepProfile {
            modules,
            fwd_total_secs: st.fwd_secs,
            fwd_io_bytes: self.io.bytes_written(),
            fwd_io_secs: self.io.write_busy_secs(),
        }
    }

    /// Derives and applies the adaptive ROK cutoff for `profile`. The
    /// budget is the [`CostModel`]'s effective write bandwidth of the
    /// byte split the stack's front-first walk produces, serialised on
    /// the shared write bus, rather than a sum of link rates.
    fn replan(&self, st: &mut State, profile: &StepProfile) -> AdaptivePlan {
        let plan = if self.config.adaptive {
            let cost = self.cost_model();
            let split = cost.split_for(profile, &cost.front_first_assignment(profile));
            AdaptivePlan::decide(
                profile,
                cost.effective_write_bps(&split),
                self.config.bwd_fwd_ratio,
            )
        } else {
            let paths: Vec<String> = profile.modules.iter().map(|m| m.path.clone()).collect();
            AdaptivePlan::keep_last_only(&paths)
        };
        st.plan = plan.clone();
        plan
    }

    /// Prefetches the records of up to `depth` record-holding modules at
    /// or before position `pos` in the forward order, nearest first.
    fn prefetch_before(&self, st: &mut State, mb: usize, pos: usize, depth: usize) {
        if !self.config.prefetch {
            return;
        }
        let now = self.io.clock().now();
        let mut taken = 0;
        for p in (0..pos).rev() {
            let Some(&seq) = st.forward_order.get(&mb).and_then(|o| o.get(p)) else {
                continue;
            };
            if st.scopes.get(&seq).is_none_or(|m| m.records.is_empty()) {
                continue;
            }
            st.for_scope_records(seq, |st, id| self.prefetch_record(st, id, now));
            taken += 1;
            if taken >= depth {
                break;
            }
        }
    }

    /// Collects prefetch group `gidx` of micro-batch `mb` — the modules
    /// at forward-order positions `[gidx·G, (gidx+1)·G)` for `G =
    /// prefetch_group_modules` — into `ids`, in the order backward reads
    /// them: last module first, and inside a module the last-packed
    /// record first (the read link is FIFO, so issue order is arrival
    /// order). Returns the group's bytes and how many of them a
    /// prefetch would reload at `now`, i.e. those that left memory when
    /// their store landed: a record whose store is still in flight is
    /// forwarded instead, which allocates nothing.
    fn group_records(
        &self,
        st: &State,
        mb: usize,
        gidx: usize,
        now: SimTime,
        ids: &mut Vec<RecordId>,
    ) -> (u64, u64) {
        ids.clear();
        let g = self.config.prefetch_group_modules.max(1);
        let order = st.forward_order.get(&mb).map_or(&[][..], Vec::as_slice);
        let start = gidx.saturating_mul(g).min(order.len());
        let end = start.saturating_add(g).min(order.len());
        let (mut bytes, mut reload) = (0u64, 0u64);
        for seq in order[start..end].iter().rev() {
            let Some(meta) = st.scopes.get(seq) else {
                continue;
            };
            for id in meta.records.iter().rev() {
                let Some(rec) = st.records.get(id) else {
                    continue;
                };
                // Only a deduplicated record sits in a second scope.
                if !rec.scopes.more.is_empty() && ids.contains(id) {
                    continue;
                }
                ids.push(*id);
                bytes += rec.bytes;
                let left_memory = match rec.state {
                    RecState::Offloaded => true,
                    // Landed, and the prefetch will commit it first.
                    RecState::Storing { job } => {
                        now >= self.io.store_end(job) && rec.leaves_at_commit()
                    }
                    _ => false,
                };
                if left_memory {
                    reload += rec.bytes;
                }
            }
        }
        (bytes, reload)
    }

    /// Books the segments whose store has landed since the last call.
    /// Commits are lazy — a landed store's memory is released (stamped
    /// at the store's end) only when something reaches the record — so
    /// until then [`GpuMemory::resident`] over-reads by it; the group
    /// prefetcher subtracts `State::unsettled` from every level it
    /// reads. The write queue is one FIFO, so the landed segments are a
    /// prefix of `seg_jobs` and each is visited once.
    fn note_landed(&self, st: &mut State, now: SimTime) {
        while let Some(job) = st.seg_jobs.get(st.seg_landed) {
            if let Some(seg) = st.segments.get_mut(job) {
                if self.io.store_end(*job) > now {
                    break;
                }
                let members = st.seg_members[seg.members.clone()].iter();
                let freed = members.filter_map(|id| st.records.get(id)).filter(|r| {
                    matches!(r.state, RecState::Storing { .. })
                        && !r.is_state()
                        && r.leaves_at_commit()
                });
                seg.unsettled = freed.map(|r| r.bytes).sum();
                st.unsettled += seg.unsettled;
            }
            st.seg_landed += 1;
        }
    }

    /// Activation bytes the device holds now or has promised to a
    /// reload in flight: the memory counter (which books a reload when
    /// it is issued), less the landed stores it has not released yet.
    fn activation_level(&self, st: &mut State, now: SimTime) -> u64 {
        self.note_landed(st, now);
        let booked = self.mem.resident(MemClass::Activation);
        booked.saturating_sub(st.unsettled)
    }

    /// The group prefetcher: one consumption-ordered look-ahead per
    /// backward pass. `cur` is the group backward is consuming (the last
    /// one when the pass is only announced).
    ///
    /// The walk visits the record-holding groups downward from `cur` and
    /// issues them in the order backward will read them. The first
    /// `prefetch_depth` in flight are the floor: issued whatever the
    /// memory level, so backward always makes progress. Beyond the floor
    /// the next group is issued only while the bytes it would reload fit
    /// under the level this pass began at (`Lookahead::bound`, read once,
    /// before anything is issued) minus the level now, in-flight reloads
    /// included. Look-ahead therefore never lifts activation memory
    /// above where backward started: it spends what backward has handed
    /// back, and starts as soon as the pass is announced instead of when
    /// consumption comes within two positions of a group.
    fn look_ahead(&self, st: &mut State, mb: usize, cur: usize) {
        let now = self.io.clock().now();
        let la = match st.lookahead.get(&mb) {
            Some(la) => *la,
            None => Lookahead {
                bound: self.activation_level(st, now),
                next: cur + 1,
                cur,
            },
        };
        let cur = cur.min(la.cur);
        // Groups above the consumption point were fully consumed; return
        // their staging slabs.
        for gidx in (cur + 1..=la.cur).rev() {
            if let Some(slab) = st.group_slabs.remove(&(mb, gidx)) {
                self.retire_slab(&st.trace, slab);
            }
        }
        let depth = self.config.prefetch_depth.max(1);
        let mut ahead = st.group_slabs.keys().filter(|k| k.0 == mb).count();
        let mut next = la.next.min(cur + 1);
        let mut ids = std::mem::take(&mut st.group_scratch);
        while next > 0 {
            let gidx = next - 1;
            let (bytes, reload) = self.group_records(st, mb, gidx, now, &mut ids);
            if !ids.is_empty() {
                let headroom = la.bound.saturating_sub(self.activation_level(st, now));
                if ahead >= depth && reload > headroom {
                    break;
                }
                let slab = self.arena.acquire(bytes);
                if slab.is_some() {
                    st.trace
                        .instant_bytes(TraceCategory::Arena, "arena.acquire", now, bytes);
                }
                st.group_slabs.insert((mb, gidx), slab);
                st.stats.prefetch_groups += 1;
                st.stats.prefetch_group_bytes += bytes;
                if st.trace.is_enabled() {
                    st.trace.instant_with(
                        TraceCategory::Prefetch,
                        "prefetch.group",
                        now,
                        vec![
                            ("group", ArgValue::U64(gidx as u64)),
                            ("bytes", ArgValue::U64(bytes)),
                            ("lookahead", ArgValue::U64((cur - gidx) as u64)),
                            ("reload_bytes", ArgValue::U64(reload)),
                            ("headroom", ArgValue::U64(headroom)),
                        ],
                    );
                }
                for &id in &ids {
                    self.prefetch_record(st, id, now);
                }
                ahead += 1;
            }
            next = gidx;
        }
        st.group_scratch = ids;
        st.lookahead.insert(mb, Lookahead { next, cur, ..la });
    }

    /// Enters `stage` and returns an RAII guard covering it: the
    /// Algorithm 1 line 9 entry actions (`tc.set_stage(cmd)`) run now,
    /// the line 15 exit actions (`tc.stage_done(cmd)`) run when the
    /// guard drops, and the guard emits the stage's span into the trace.
    /// This replaces the manual `set_stage`/`stage_done` call pairs,
    /// which could be forgotten or mismatched.
    ///
    /// Every exit seals and submits the open segments. A backward exit
    /// then waits for its in-flight reloads and, like the optimizer's,
    /// for every store; any other exit waits only for state-class
    /// stores — forward's activation stores run on into backward, which
    /// forwards, cancels or commits-and-reloads them as it reaches them.
    ///
    /// ```
    /// # use ssdtrain::{CpuTarget, IoEngine, StageHint, TensorCache, TensorCacheConfig};
    /// # use ssdtrain_simhw::{GpuMemory, SimClock};
    /// # use std::sync::Arc;
    /// # let clock = SimClock::new();
    /// # let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 30));
    /// # let io = IoEngine::new(clock, 1e9, 1e9);
    /// # let cache = TensorCache::new(
    /// #     TensorCacheConfig::offload_everything(),
    /// #     Arc::new(CpuTarget::new(1 << 30)),
    /// #     io,
    /// #     mem,
    /// # );
    /// {
    ///     let scope = cache.stage_scope(StageHint::Forward);
    ///     scope.announce_next(StageHint::Backward); // prefetch overlaps the tail
    ///     // ... run the stage ...
    /// } // exit actions + trace span happen here
    /// ```
    pub fn stage_scope(&self, stage: StageHint) -> StageScope<'_> {
        if let StageHint::MicroBatchLoad(mb) = stage {
            self.set_micro_batch(mb);
        }
        StageScope {
            cache: self,
            stage,
            enter: self.io.clock().now(),
        }
    }

    /// The exit actions of `stage` (Algorithm 1 line 15) and its trace
    /// span, under one acquisition of the lock.
    ///
    /// Every exit seals and submits the open segments; what the clock
    /// then waits for depends on who reads the bytes next. An activation
    /// store has a consumer that resolves it in flight — backward's
    /// `unpack` / prefetch forward the tensor, cancel a sole-member job,
    /// or commit and reload no earlier than the record's store landed —
    /// so forward's tail stores run on into backward (paper Section
    /// 3.3.2) and block only where the step accounts for them: at
    /// backward's exit, which frees the last activation inside the pass
    /// that produced it, and at the optimizer's, the end of the step. A
    /// state-class store has no forwarding path and shares the write
    /// queue with the activations behind it, so it blocks the exit that
    /// follows it, whichever that is (the overlapped optimizer's
    /// write-back before forward, gradients streamed during backward at
    /// its exit, the sweep's stragglers after it).
    fn exit_stage(&self, stage: StageHint, enter: SimTime) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if matches!(stage, StageHint::Backward) {
            self.await_loads(st);
        }
        let every_class = matches!(stage, StageHint::Backward | StageHint::Optimizer);
        self.drain_store_queues(st, every_class);
        if matches!(stage, StageHint::Optimizer) {
            self.emit_tier_io(st);
        }
        if st.trace.is_enabled() {
            let now = self.io.clock().now();
            st.trace
                .span(TraceCategory::Stage, stage.trace_label(), enter, now);
        }
    }

    /// Store drain: seals the open segments and advances the simulated
    /// clock to the last submitted store's completion, whatever its
    /// class. The exposed time — the drain minus whatever compute
    /// already covered it — lands in [`OffloadStats::store_stall_secs`]
    /// and, per link, in the tier counters' `stall_secs`, with a
    /// `tier.drain.<link>` span ([`TraceCategory::Tier`]) over each
    /// link's exposed window. A fully-overlapped drain is free: no time
    /// passes, no span or counter is emitted.
    ///
    /// A [`StageScope`] calls this for every class only when a backward
    /// or optimizer stage exits; the other exits wait for state-class
    /// stores alone (see [`TensorCache::stage_scope`]). Write-link speed
    /// therefore reaches the step clock as `max(forward + backward
    /// compute, store drain)`, not per stage.
    pub fn drain_stores(&self) {
        self.drain_store_queues(&mut self.state.lock(), true);
    }

    /// Seals the open segments — no staged byte outlives the stage that
    /// produced it — then waits for the store queues: for every job when
    /// `every_class`, otherwise only until the last state-class store
    /// landed (activation jobs queued behind it keep running).
    fn drain_store_queues(&self, st: &mut State, every_class: bool) {
        self.seal_open_segments(st);
        let now0 = self.io.clock().now();
        let latest = if every_class {
            self.io.writes_drain_at()
        } else {
            // State commits at submit, so `avail` is its store's end.
            let state = st.records.values().filter(|r| r.is_state());
            state.map(|r| r.avail).fold(SimTime::ZERO, SimTime::max)
        };
        let stall = self.io.clock().advance_to(latest.max(now0));
        if stall <= 0.0 {
            return;
        }
        st.stats.store_stall_secs += stall;
        let links = self.io.link_count();
        if st.link_stalls.len() < links {
            st.link_stalls.resize(links, 0.0);
        }
        for link in 0..links {
            let drain = self.io.writes_drain_at_on(link).min(latest);
            let exposed = drain.since(now0);
            if exposed > 0.0 {
                st.link_stalls[link] += exposed;
                if st.trace.is_enabled() {
                    let name = format!("tier.drain.{}", self.io.link_name(link));
                    st.trace.span(TraceCategory::Tier, name, now0, drain);
                }
            }
        }
    }

    /// Emits one `tier.io.<name>` instant per tier and one
    /// `class.io.<label>` instant per [`OffloadClass`] that saw traffic
    /// this step (at the optimizer stage's exit, i.e. the end of the
    /// step), carrying byte counts — the trace-side mirror of the
    /// [`OffloadStats`] tier and class counters.
    fn emit_tier_io(&self, st: &State) {
        if !st.trace.is_enabled() {
            return;
        }
        let now = self.io.clock().now();
        for c in st.stats.classes.iter() {
            if c.offloaded_bytes == 0 && c.reloaded_bytes == 0 {
                continue;
            }
            st.trace.instant_with(
                TraceCategory::Tier,
                format!("class.io.{}", c.class),
                now,
                vec![
                    ("offloaded_bytes", ArgValue::U64(c.offloaded_bytes)),
                    ("reloaded_bytes", ArgValue::U64(c.reloaded_bytes)),
                    ("stores", ArgValue::U64(c.stores)),
                    ("loads", ArgValue::U64(c.loads)),
                ],
            );
        }
        for (tier, counters) in self.tiers.tier_ids().iter().zip(self.tiers.counters()) {
            if counters.bytes_written == 0 && counters.bytes_read == 0 {
                continue;
            }
            let link = self.tiers.link(*tier);
            let stall = st.link_stalls.get(link).copied().unwrap_or(0.0);
            st.trace.instant_with(
                TraceCategory::Tier,
                format!("tier.io.{}", counters.name),
                now,
                vec![
                    ("bytes_written", ArgValue::U64(counters.bytes_written)),
                    ("bytes_read", ArgValue::U64(counters.bytes_read)),
                    (
                        "write_busy_secs",
                        ArgValue::F64(self.io.write_busy_secs_on(link)),
                    ),
                    (
                        "read_busy_secs",
                        ArgValue::F64(self.io.read_busy_secs_on(link)),
                    ),
                    ("stall_secs", ArgValue::F64(stall)),
                ],
            );
        }
    }

    /// Scheduler hint (Algorithm 1 line 13): the step is about to switch
    /// to backward propagation — prefetch the tail modules' activations.
    /// In group mode ([`TensorCacheConfig::prefetch_group_modules`]) this
    /// announces the backward pass to the group look-ahead: the level
    /// the pass begins at is read here, and the reloads of every group
    /// that fits under it start now.
    pub fn prefetch_last_module(&self) {
        let mut st = self.state.lock();
        let mb = st.current_mb;
        let len = st.forward_order.get(&mb).map_or(0, |o| o.len());
        let g = self.config.prefetch_group_modules;
        if self.config.prefetch && g > 0 {
            if len > 0 {
                self.look_ahead(&mut st, mb, (len - 1) / g);
            }
            return;
        }
        self.prefetch_before(&mut st, mb, len, self.config.prefetch_depth.max(1));
    }

    /// Scheduler hint (Algorithm 1 line 15): block until in-flight
    /// reloads complete.
    pub fn wait_io(&self) {
        self.await_loads(&mut self.state.lock());
    }

    fn await_loads(&self, st: &mut State) {
        let loading = st.records.values().filter_map(|r| match r.state {
            RecState::Loading { ready } => Some(ready),
            _ => None,
        });
        let latest = loading.fold(SimTime::ZERO, SimTime::max);
        self.stall_until(st, latest, "stall.drain");
    }

    /// Micro-batch switch hint (Figure 4 ③): subsequent scopes belong to
    /// micro-batch `mb` and the cache switches to its record set.
    pub fn set_micro_batch(&self, mb: usize) {
        self.state.lock().current_mb = mb;
    }

    /// Releases every remaining activation record (end of step). Stores
    /// still in flight commit at their completion times; state slots
    /// stay until [`TensorCache::release_state`].
    pub fn flush(&self) {
        self.flush_records(&mut self.state.lock());
    }

    fn flush_records(&self, st: &mut State) {
        self.seal_open_segments(st);
        // Releasing edits the map being walked, so the ids are copied
        // out first — once per step, not per record.
        let live = st.records.iter().filter(|(_, r)| !r.is_state());
        let ids: Vec<RecordId> = live.map(|(id, _)| *id).collect();
        for id in ids {
            self.release_record(st, id);
        }
        st.by_key.clear();
        st.segments.clear();
        st.seg_members.clear();
        st.seg_jobs.clear();
        st.seg_landed = 0;
        st.unsettled = 0;
        st.lookahead.clear();
        for (_, slab) in st.group_slabs.drain() {
            self.retire_slab(&st.trace, slab);
        }
    }

    // ------------------------------------------------------------------
    // State offload (gradients, optimizer state)
    // ------------------------------------------------------------------

    /// Offloads a state tensor (gradient or optimizer state) through the
    /// same placement → tier → I/O stack activations use. Returns the
    /// slot handle, or `None` when the tensor stays resident — placement
    /// keep, full tiers, or a store failure absorbed per the configured
    /// [`RecoveryPolicy`] (under [`RecoveryPolicy::FailStep`] the error
    /// additionally lands in [`TensorCache::take_error`]).
    ///
    /// The slot is an ordinary record sealed alone — state never waits
    /// in the coalescer — and committed at submit: state has no
    /// forwarding path, so the payload crosses to the tier now and
    /// recovery runs here rather than at a deferred commit. The store
    /// job rides the admitting tier's [`crate::TierLink`] behind the shared
    /// write bus; the tensor's GPU memory is freed at
    /// the store's simulated completion, whoever else holds the tensor.
    /// A same-step [`TensorCache::load_state`] can never complete before
    /// that time.
    pub fn offload_state(&self, tensor: &Tensor, class: OffloadClass) -> Option<StateSlot> {
        let mut st = self.state.lock();
        let id = self.store(&mut st, tensor, class)?;
        if let RecState::Storing { job } = st.records.get(&id)?.state {
            self.commit_segment(&mut st, job);
        }
        if matches!(st.records.get(&id)?.state, RecState::Offloaded) {
            return Some(StateSlot(id));
        }
        drop(st);
        // Recovery kept the tensor resident: no slot, and the admission
        // reservation goes back.
        self.release_state(StateSlot(id));
        None
    }

    /// Reloads an offloaded state slot's bytes back into its tensor and
    /// returns the simulated time the load completes. The caller decides
    /// what to do with that time — the unoverlapped optimizer stalls on
    /// it, the overlap engine compares it against the next forward's
    /// arrival. The ready time is clamped to the slot's own store drain,
    /// so state is never read before its store landed. A slot already
    /// resident returns `now`; an unknown slot returns `None`.
    pub fn load_state(&self, slot: StateSlot) -> Option<SimTime> {
        let now = self.io.clock().now();
        let mut st = self.state.lock();
        st.records.get(&slot.0)?;
        let ready = self.reload(&mut st, slot.0, Reload::State);
        Some(ready.unwrap_or(now))
    }

    /// The simulated time `slot`'s store drains (its earliest legal
    /// read), or `None` for unknown or already-resident slots.
    pub fn state_available_at(&self, slot: StateSlot) -> Option<SimTime> {
        let st = self.state.lock();
        let rec = st.records.get(&slot.0)?;
        matches!(rec.state, RecState::Offloaded).then_some(rec.avail)
    }

    /// Drops a state slot, returning its tier reservation. Bytes still
    /// offloaded are abandoned on the tier (the optimizer overwrites
    /// state wholesale each step; there is nothing to read back).
    pub fn release_state(&self, slot: StateSlot) {
        // Committed at submit and owned by its caller: a slot has no
        // store to settle and no memory of the cache's to free.
        let Some(rec) = self.state.lock().records.remove(&slot.0) else {
            return;
        };
        self.drop_from_tier(&rec);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn innermost_kept(&self, st: &State) -> bool {
        if st.profiling {
            return false;
        }
        let Some(seq) = st.stack.last() else {
            return false;
        };
        st.plan.keeps(&st.scopes[seq].path)
    }

    /// Releases a staging slab back to the arena, emitting the
    /// `arena.release` instant the Arena trace lane is built from.
    fn retire_slab(&self, trace: &TraceSink, slab: Option<PinnedSlab>) {
        let Some(slab) = slab else { return };
        let len = slab.len;
        if self.arena.release(slab) {
            let now = self.io.clock().now();
            trace.instant_bytes(TraceCategory::Arena, "arena.release", now, len);
        }
    }

    /// Blocks (on the simulated clock) until `t`; whatever compute did not
    /// already cover is exposed I/O latency, accounted in
    /// [`OffloadStats::stall_secs`] with a `name` span over it.
    fn stall_until(&self, st: &mut State, t: SimTime, name: &'static str) {
        let stall = self.io.clock().advance_to(t);
        st.stats.stall_secs += stall;
        if stall > 0.0 {
            st.trace
                .span(TraceCategory::Stall, name, t.plus_secs(-stall), t);
        }
    }

    /// The one store path — `pack` (Algorithm 2) and every state slot:
    /// the keep/offload decision, deduplication, tier admission, then a new
    /// record staged towards its store job. Returns the record's id, or
    /// `None` when the tensor stays where it is.
    fn store(&self, st: &mut State, tensor: &Tensor, class: OffloadClass) -> Option<RecordId> {
        let activation = class == OffloadClass::Activation;
        // Algorithm 2 line 12, for every class: a parameter (Algorithm 1
        // lines 3–4) or a tensor below the threshold was never an
        // offload candidate and is not counted.
        if st.param_stamps.contains(&storage_stamp(tensor))
            || tensor.numel() < self.config.min_offload_numel
        {
            return None;
        }
        // Algorithm 2 line 15 and the adaptive plan's kept tail, for
        // activations only: state live ranges are bounded by the
        // optimizer schedule, not the autograd phase.
        if activation && (st.phase.in_backward() || self.innermost_kept(st)) {
            st.stats.kept += 1;
            return None;
        }

        let key = tensor_key(tensor);
        // State slots belong to their caller, not to a module scope.
        let cur_scope = st.stack.last().copied().filter(|_| activation);

        // Deduplication (Section 3.3.1); state slots never alias.
        if activation && self.config.dedup {
            if let Some(&id) = st.by_key.get(&key) {
                let bytes = st.records[&id].bytes;
                if let Some(seq) = cur_scope {
                    if let Some(rec) = st.records.get_mut(&id) {
                        rec.scopes.insert(seq);
                    }
                    if let Some(meta) = st.scopes.get_mut(&seq) {
                        if !meta.records.contains(&id) {
                            meta.records.push(id);
                        }
                    }
                }
                st.stats.dedup_hits += 1;
                st.stats.dedup_avoided_bytes += bytes;
                let now = self.io.clock().now();
                st.trace
                    .instant_bytes(TraceCategory::Dedup, "dedup.hit", now, bytes);
                return Some(id);
            }
        }

        // Tier admission: reserve capacity before any store job exists,
        // so a bounded front tier can never be oversubscribed by jobs
        // already in flight. A full stack refuses gracefully — the
        // tensor stays resident, numerics untouched.
        let bytes = tensor.bytes();
        let trace = &st.trace;
        let now = self.io.clock().now();
        let Some(TierPlacement { tier, spilled }) = self.tiers.reserve(bytes) else {
            st.stats.kept += 1;
            st.stats.placement_kept_bytes += bytes;
            trace.instant_bytes(TraceCategory::Tier, "tier.full", now, bytes);
            return None;
        };

        // New record (Figure 4 ①). The bytes enter the pinned staging
        // arena and the record waits, `Staged`, for its segment to
        // seal; the memory release is deferred until the store commits.
        let slab = self.arena.acquire(bytes);
        if slab.is_some() {
            trace.instant_bytes(TraceCategory::Arena, "arena.acquire", now, bytes);
        }
        if trace.is_enabled() {
            let args = class_args(bytes, class);
            trace.instant_with(TraceCategory::Store, "store.enqueue", now, args);
        }
        if spilled && trace.is_enabled() {
            trace.instant_with(
                TraceCategory::Tier,
                "tier.spill",
                now,
                vec![
                    ("bytes", ArgValue::U64(bytes)),
                    ("tier", ArgValue::from(self.tiers.name(tier))),
                ],
            );
        }
        let id = st.next_id;
        st.next_id += 1;
        let mut scopes = ScopeSet::default();
        if let Some(seq) = cur_scope {
            scopes.insert(seq);
            if let Some(meta) = st.scopes.get_mut(&seq) {
                meta.records.push(id);
                meta.offload_bytes += bytes;
            }
        }
        if activation {
            st.by_key.insert(key.clone(), id);
        }
        st.records.insert(
            id,
            Record {
                key,
                tensor: tensor.clone(),
                bytes,
                class,
                state: RecState::Staged,
                scopes,
                tier,
                slab,
                stored: false,
                avail: SimTime::ZERO,
            },
        );
        st.stats.offloaded_bytes += bytes;
        if spilled {
            st.stats.spilled_bytes += bytes;
        }
        st.stats.class_mut(class).offloaded_bytes += bytes;

        if activation && self.config.coalesce_segment_bytes > 0 {
            if let Some(seg) = st.coalescer.stage(tier, id, bytes, class) {
                self.submit_sealed(st, seg);
            }
        } else {
            // Nothing to wait for: the record seals at once, a segment
            // of one.
            self.submit_segment(st, tier, std::iter::once(id));
        }
        Some(id)
    }

    /// Seals `members` — `Staged` records admitted to `tier` — into one
    /// segment and submits its store job, flipping them to `Storing`.
    /// One segment is one job on the tier's link
    /// ([`OffloadStats::store_jobs`] counts segments, not tensors) and
    /// will be one device write operation at commit; byte and class
    /// accounting stayed per record at stage time, so the trace identity
    /// `Σstore.enqueue − Σstore.cancel − recoveries == offloaded_bytes`
    /// holds whatever the segment size.
    fn submit_segment(
        &self,
        st: &mut State,
        tier: TierId,
        members: impl Iterator<Item = RecordId>,
    ) {
        let first = st.seg_members.len();
        st.seg_members.extend(members);
        let range = first..st.seg_members.len();
        let sizes = st.seg_members[range.clone()].iter();
        let total: u64 = sizes.map(|id| st.records[id].bytes).sum();
        let job = self.io.submit_store_to(self.tiers.link(tier), total);
        st.seg_jobs.push(job);
        let (start, end) = self.io.store_span(job);
        let seg_secs = end.since(start);
        // Only activations coalesce, so a segment has one class.
        let class = st.records[&st.seg_members[first]].class;
        for i in range.clone() {
            let Some(rec) = st.records.get_mut(&st.seg_members[i]) else {
                continue;
            };
            rec.state = RecState::Storing { job };
            // Profiling sees the segment's link occupancy distributed
            // over its members proportional to their bytes — all of it
            // when the member is alone.
            let share = if range.len() == 1 {
                seg_secs
            } else {
                seg_secs * rec.bytes as f64 / total.max(1) as f64
            };
            let scope = rec.scopes.min();
            if let Some(meta) = scope.and_then(|s| st.scopes.get_mut(&s)) {
                meta.store_secs += share;
            }
        }
        let segment = Segment {
            members: range,
            unsettled: 0,
        };
        st.segments.insert(job, segment);
        st.stats.store_jobs += 1;
        st.stats.class_mut(class).stores += 1;
    }

    /// Submits a segment the coalescer sealed. The `coalesce_*` counters
    /// and the `coalesce.seal` instant describe coalescing only:
    /// segments of one sealed without the coalescer stay silent here.
    fn submit_sealed(&self, st: &mut State, seg: SealedSegment) {
        self.submit_segment(st, seg.tier, seg.entries.iter().map(|e| e.record));
        let total = seg.total_bytes();
        st.stats.coalesce_segments += 1;
        st.stats.coalesced_bytes += total;
        if st.trace.is_enabled() {
            st.trace.instant_with(
                TraceCategory::Coalesce,
                "coalesce.seal",
                self.io.clock().now(),
                vec![
                    ("bytes", ArgValue::U64(total)),
                    ("entries", ArgValue::U64(seg.entries.len() as u64)),
                ],
            );
        }
    }

    /// Seals every open segment and submits their store jobs (stage
    /// barriers and flushes call this so no staged byte outlives the
    /// stage that produced it).
    fn seal_open_segments(&self, st: &mut State) {
        for seg in st.coalescer.seal_all() {
            self.submit_sealed(st, seg);
        }
    }

    /// Commits the segment riding `job`: one batched device write for
    /// every member still riding it (members forwarded after sealing are
    /// skipped — their bytes never leave memory), memory freed at the
    /// job's completion time. Idempotent: removal from the segment map
    /// marks the segment committed. A failed write degrades the
    /// *segment* per the configured [`RecoveryPolicy`], not per tensor.
    fn commit_segment(&self, st: &mut State, job: JobId) {
        let Some(Segment { members, unsettled }) = st.segments.remove(&job) else {
            return;
        };
        st.unsettled -= unsettled;
        let (start, end) = self.io.store_span(job);
        let mut batch = std::mem::take(&mut st.commit_scratch);
        for i in members {
            let id = st.seg_members[i];
            let Some(rec) = st.records.get_mut(&id) else {
                continue;
            };
            if !matches!(rec.state, RecState::Storing { .. }) {
                continue;
            }
            if !rec.leaves_at_commit() {
                rec.state = RecState::Resident;
                let slab = rec.slab.take();
                self.retire_slab(&st.trace, slab);
                continue;
            }
            // The real payload crosses the filesystem at commit (wall
            // time); the simulated transfer finished at `end`.
            batch.push((id, rec.tensor.storage().to_bytes()));
        }
        let Some((head, _)) = batch.first() else {
            st.commit_scratch = batch;
            return;
        };
        let tier = st.records[head].tier;
        // The batch borrows keys and payloads; a segment of one is built
        // on the stack.
        type Records = HashMap<RecordId, Record>;
        fn item<'a>(records: &'a Records, (id, data): &'a Payload) -> BatchItem<'a> {
            let rec = &records[id];
            (&rec.key, data.as_deref(), rec.bytes)
        }
        let written = match batch.as_slice() {
            [only] => self.tiers.write_segment(tier, &[item(&st.records, only)]),
            all => {
                let items: Vec<_> = all.iter().map(|m| item(&st.records, m)).collect();
                self.tiers.write_segment(tier, &items)
            }
        };
        match written {
            Ok(()) => {
                let mut total = 0;
                for (id, _) in &batch {
                    let Some(rec) = st.records.get_mut(id) else {
                        continue;
                    };
                    self.mem.with_time(end, || rec.tensor.storage().release());
                    rec.state = RecState::Offloaded;
                    rec.stored = true;
                    rec.avail = end;
                    total += rec.bytes;
                }
                st.trace
                    .span_bytes(TraceCategory::Store, "store", start, end, total);
            }
            Err(err) => self.recover_failed_segment(st, tier, job, &batch, end, err),
        }
        // Whatever the outcome, the staging buffers' job is done.
        for (id, _) in batch.drain(..) {
            let slab = st.records.get_mut(&id).and_then(|rec| rec.slab.take());
            self.retire_slab(&st.trace, slab);
        }
        st.commit_scratch = batch;
    }

    /// Recovery for a segment write the target refused. The payload only
    /// crosses to the target at commit time and
    /// [`crate::OffloadTarget::write_batch`] unwinds partial writes, so
    /// every member in `batch` is still in GPU memory and every
    /// [`RecoveryPolicy`] keeps the step numerically exact — the policy
    /// decides whether the failure is absorbed, re-routed, or surfaced
    /// as a step error. One failure, one policy decision:
    /// [`RecoveryPolicy::FallbackTarget`] demotes the members
    /// individually (they keep their identity), the keep-resident
    /// policies absorb the whole segment at once.
    fn recover_failed_segment(
        &self,
        st: &mut State,
        tier: TierId,
        job: JobId,
        batch: &[Payload],
        end: SimTime,
        err: io::Error,
    ) {
        st.stats.store_failures += 1;
        let now = self.io.clock().now();
        let fallback = self.config.recovery == RecoveryPolicy::FallbackTarget;
        let (mut fell_back, mut kept) = (0u64, 0u64);
        let mut dest = None;
        for (id, data) in batch {
            let Some(rec) = st.records.get_mut(id) else {
                continue;
            };
            let demoted = if fallback {
                let (data, retries) = (data.as_deref(), MAX_IO_RETRIES);
                self.tiers.demote(tier, &rec.key, data, rec.bytes, retries)
            } else {
                None
            };
            match demoted {
                Some(lower) => {
                    self.mem.with_time(end, || rec.tensor.storage().release());
                    rec.state = RecState::Offloaded;
                    rec.stored = true;
                    rec.avail = end;
                    rec.tier = lower;
                    fell_back += rec.bytes;
                    dest = Some(lower);
                }
                None => {
                    rec.state = RecState::Resident;
                    kept += rec.bytes;
                }
            }
        }
        if kept > 0 && fell_back == 0 {
            // Nothing from this segment is in flight any more; return
            // the dead job if it still sits in the queue.
            let _ = self.io.try_cancel_store(job, now);
        }
        let Some(head) = batch.first().and_then(|(id, _)| st.records.get(id)) else {
            return;
        };
        // Failed bytes leave `offloaded_bytes` for `fallback_bytes` or
        // `kept_resident_bytes`.
        st.stats.offloaded_bytes -= fell_back + kept;
        st.stats.fallback_bytes += fell_back;
        st.stats.kept_resident_bytes += kept;
        st.stats.class_mut(head.class).offloaded_bytes -= fell_back + kept;
        let trace = &st.trace;
        if let Some(lower) = dest {
            let mut args = class_args(fell_back, head.class);
            args.push(("target", ArgValue::from(self.tiers.name(lower))));
            trace.instant_with(TraceCategory::Recovery, "recovery.fallback", now, args);
        }
        if kept > 0 && trace.is_enabled() {
            let args = class_args(kept, head.class);
            trace.instant_with(TraceCategory::Recovery, "recovery.keep_resident", now, args);
        }
        if self.config.recovery == RecoveryPolicy::FailStep {
            trace.instant(TraceCategory::Recovery, "recovery.fail_step", now);
            if st.pending_error.is_none() {
                st.pending_error = Some(OffloadError::Store {
                    key: head.key.clone(),
                    bytes: kept,
                    target: self.tiers.name(tier),
                    source: err,
                });
            }
        }
    }

    /// Takes record `id` back out of the store path while its bytes are
    /// still in GPU memory — data forwarding (Section 3.3.2) when the
    /// tensor is being consumed (`forwarded`), a plain withdrawal when it
    /// is being released. A `Staged` record leaves its open segment: no
    /// job was ever queued, so its stage-time enqueue is always balanced
    /// by a cancel. A `Storing` record that is the sole member of its
    /// job cancels the job if it has not started (adaptive feature 1)
    /// and un-counts it; a member of a larger segment is forwarded
    /// *without* cancelling — the job carries its siblings and commit
    /// skips this member.
    fn withdraw(&self, st: &mut State, id: RecordId, now: SimTime, forwarded: bool) {
        let Some(rec) = st.records.get_mut(&id) else {
            return;
        };
        let (bytes, class) = (rec.bytes, rec.class);
        let job = match rec.state {
            RecState::Staged => {
                st.coalescer.evict(rec.tier, id);
                None
            }
            RecState::Storing { job } => Some(job),
            _ => return,
        };
        rec.state = RecState::Resident;
        let slab = rec.slab.take();
        self.retire_slab(&st.trace, slab);
        let evicted = job.is_none();
        let mut unqueued = false;
        if let Some(job) = job {
            let sole = st.segments.get(&job).is_some_and(|s| s.members.len() == 1);
            if sole && self.config.cancel_forwarded_stores && self.io.try_cancel_store(job, now) {
                st.segments.remove(&job);
                unqueued = true;
            }
        }
        let stats = &mut st.stats;
        if forwarded {
            stats.forwarded += 1;
            stats.forwarded_bytes += bytes;
        }
        if evicted || unqueued {
            stats.cancelled_stores += 1;
            stats.cancelled_bytes += bytes;
            stats.offloaded_bytes -= bytes;
            stats.class_mut(class).offloaded_bytes -= bytes;
        }
        if evicted {
            stats.coalesce_evictions += 1;
        }
        if unqueued {
            stats.store_jobs -= 1;
            stats.class_mut(class).stores -= 1;
        }
        let trace = &st.trace;
        if forwarded {
            trace.instant_bytes(TraceCategory::Forwarding, "forward", now, bytes);
        }
        if evicted || unqueued {
            trace.instant_bytes(TraceCategory::Store, "store.cancel", now, bytes);
        }
        if evicted {
            trace.instant_bytes(TraceCategory::Coalesce, "coalesce.evict", now, bytes);
        }
    }

    /// Submits the reload of an `Offloaded` record and restores its
    /// bytes, returning the simulated time they are resident again —
    /// never before the record's own store drained. `None` when the
    /// record is unknown or not offloaded.
    fn reload(&self, st: &mut State, id: RecordId, how: Reload) -> Option<SimTime> {
        let rec = st.records.get_mut(&id)?;
        if !matches!(rec.state, RecState::Offloaded) {
            return None;
        }
        let (bytes, class) = (rec.bytes, rec.class);
        if matches!(how, Reload::Prefetch) {
            let now = self.io.clock().now();
            st.trace
                .instant_bytes(TraceCategory::Prefetch, "prefetch.issue", now, bytes);
        }
        let link = self.tiers.link(rec.tier);
        let busy0 = self.io.read_busy_secs_on(link);
        let ready = self.io.submit_load_from(link, bytes).max(rec.avail);
        let load_secs = self.io.read_busy_secs_on(link) - busy0;
        self.read_back(&mut st.stats, &mut st.pending_error, &st.trace, rec, ready);
        rec.state = match how {
            Reload::Prefetch => RecState::Loading { ready },
            Reload::Sync | Reload::State => RecState::Resident,
        };
        let scope = rec.scopes.min();
        if let Some(meta) = scope.and_then(|s| st.scopes.get_mut(&s)) {
            meta.load_secs += load_secs;
        }
        let stats = &mut st.stats;
        match how {
            Reload::Sync => stats.sync_loads += 1,
            Reload::Prefetch => stats.prefetches += 1,
            Reload::State => {}
        }
        stats.reloaded_bytes += bytes;
        let c = stats.class_mut(class);
        c.reloaded_bytes += bytes;
        c.loads += 1;
        Some(ready)
    }

    /// Read-with-retries: reloads `bytes` from `tier` into `tensor`,
    /// retrying up to [`MAX_IO_RETRIES`] times. A load that still fails is
    /// unrecoverable — the data is gone — so the tensor is restored to
    /// zeros to keep the graph executable and a structured
    /// [`OffloadError::Load`] is queued; it surfaces at the step
    /// boundary under *every* policy.
    fn read_back(
        &self,
        stats: &mut OffloadStats,
        pending: &mut Option<OffloadError>,
        trace: &TraceSink,
        rec: &Record,
        ready: SimTime,
    ) {
        let (tensor, bytes) = (&rec.tensor, rec.bytes);
        let mut attempts = 0u32;
        let data = loop {
            attempts += 1;
            match self.tiers.read(rec.tier, &rec.key, bytes) {
                Ok(d) => break d,
                Err(err) if attempts > MAX_IO_RETRIES => {
                    stats.load_retries += u64::from(attempts - 1);
                    if pending.is_none() {
                        *pending = Some(OffloadError::Load {
                            key: rec.key.clone(),
                            bytes,
                            target: self.tiers.name(rec.tier),
                            attempts,
                            source: err,
                        });
                    }
                    trace.instant_with(
                        TraceCategory::Recovery,
                        "recovery.load_failed",
                        ready,
                        vec![
                            ("bytes", ArgValue::U64(bytes)),
                            ("attempts", ArgValue::U64(u64::from(attempts))),
                        ],
                    );
                    let numel = tensor.numel();
                    self.mem.with_time(ready, || {
                        tensor.storage().restore_numeric(vec![0.0; numel]);
                    });
                    return;
                }
                Err(_) => {}
            }
        };
        if attempts > 1 {
            stats.load_retries += u64::from(attempts - 1);
            trace.instant_with(
                TraceCategory::Recovery,
                "recovery.load_retry",
                ready,
                vec![
                    ("bytes", ArgValue::U64(bytes)),
                    ("retries", ArgValue::U64(u64::from(attempts - 1))),
                ],
            );
        }
        self.mem.with_time(ready, || match data {
            Some(raw) => {
                let decoded = tensor.storage().decode_bytes(&raw);
                tensor.storage().restore_numeric(decoded);
            }
            None => tensor.storage().restore_symbolic(),
        });
    }

    /// Prefetches one record: forwards bytes still in memory, commits a
    /// finished store, then issues the reload of whatever left memory.
    fn prefetch_record(&self, st: &mut State, id: RecordId, now: SimTime) {
        match st.records.get(&id).map(|r| r.state) {
            // Prefetch reached a record whose bytes are still in
            // memory: data forwarding at prefetch time (Section
            // 3.3.2) — the store's completion must never free it.
            Some(RecState::Staged) => self.withdraw(st, id, now, true),
            Some(RecState::Storing { job }) if now < self.io.store_end(job) => {
                self.withdraw(st, id, now, true);
            }
            Some(RecState::Storing { job }) => self.commit_segment(st, job),
            _ => {}
        }
        self.reload(st, id, Reload::Prefetch);
    }

    /// Resolves a record id back to its tensor (Algorithm 2's `unpack`),
    /// *forwarding* bytes that are still in memory and blocking — a
    /// simulated-clock stall — on a reload that has not arrived. `None`
    /// for an id the cache does not hold.
    fn consume(&self, st: &mut State, id: RecordId) -> Option<Tensor> {
        let now = self.io.clock().now();
        // When the bytes are back in memory, if later than now: the
        // exposed reload the caller stalls on.
        let mut ready = None;
        match st.records.get(&id)?.state {
            RecState::Resident => {}
            // Data forwarding (Section 3.3.2): the tensor is still in
            // memory; skip the reload. A staged record never queued a
            // job, so handing it back is free whatever `forwarding` says.
            RecState::Staged => self.withdraw(st, id, now, true),
            RecState::Storing { job } if self.config.forwarding && now < self.io.store_end(job) => {
                self.withdraw(st, id, now, true);
            }
            RecState::Storing { job } => {
                // Store finished, or forwarding disabled — then the load
                // cannot begin until the store has: commit, and block on
                // a synchronous reload of whatever left memory.
                self.stall_until(st, self.io.store_end(job), "stall.store_drain");
                self.commit_segment(st, job);
                ready = self.reload(st, id, Reload::Sync);
            }
            RecState::Offloaded => ready = self.reload(st, id, Reload::Sync),
            RecState::Loading { ready: at } => ready = Some(at),
        }
        let rec = st.records.get_mut(&id)?;
        rec.state = RecState::Resident;
        let tensor = rec.tensor.clone();
        if let Some(at) = ready {
            self.stall_until(st, at, "stall.load");
        }
        Some(tensor)
    }

    fn release_record(&self, st: &mut State, id: RecordId) {
        let now = self.io.clock().now();
        // Settle the store path while the record is still in the map
        // (a segment commit needs every member resolvable by id).
        match st.records.get(&id).map(|r| r.state) {
            // Released before its segment sealed: the bytes never
            // offload (no forwarding — nothing consumed the tensor).
            Some(RecState::Staged) => self.withdraw(st, id, now, false),
            // The paper's "excessive offloading" effect: the tensor was
            // never reused, its memory comes back only when the store
            // (its own and its siblings') completes.
            Some(RecState::Storing { job }) => self.commit_segment(st, job),
            _ => {}
        }
        let Some(mut rec) = st.records.remove(&id) else {
            return;
        };
        st.by_key.remove(&rec.key);
        // Releasing frees memory only when the cache's reference is the
        // last one — like Python GC, a tensor the model still holds keeps
        // its memory (the storage's own drop reports the eventual free).
        if rec.tensor.storage().strong_count() == 1 {
            match rec.state {
                RecState::Offloaded => {}
                // Loaded data is reclaimed once the (simulated) load has
                // landed; releasing earlier would be double-counting.
                RecState::Loading { ready } => self
                    .mem
                    .with_time(ready.max(now), || rec.tensor.storage().release()),
                // Never stored, forwarded, loaded back, or kept by a
                // failed or refused commit.
                _ => rec.tensor.storage().release(),
            }
        }
        // Catch-all: whatever path retired the record, its staging slab
        // must go back to the arena exactly once.
        self.retire_slab(&st.trace, rec.slab.take());
        self.drop_from_tier(&rec);
    }

    /// Returns `rec`'s admission reservation and drops its entry from
    /// the tier's device, if a write ever put one there — the single
    /// release point of a record's bytes.
    fn drop_from_tier(&self, rec: &Record) {
        if rec.stored {
            self.tiers.remove(rec.tier, &rec.key, rec.bytes);
        } else {
            self.tiers.unreserve(rec.tier, rec.bytes);
        }
    }
}

/// A byte-carrying store-path event's arguments: `bytes`, plus `class`
/// for a state-class record (activations are the default lane and carry
/// none), so each class's lane of the trace identity can be summed.
fn class_args(bytes: u64, class: OffloadClass) -> Vec<(&'static str, ArgValue)> {
    let mut args = vec![("bytes", ArgValue::U64(bytes))];
    if class != OffloadClass::Activation {
        args.push(("class", ArgValue::from(class.label())));
    }
    args
}

/// The position of `seq` in `order`, searched backwards from `hint`,
/// then forwards from it.
fn position_near(order: &[u64], hint: usize, seq: u64) -> Option<usize> {
    let found = |s: &u64| *s == seq;
    let split = hint.saturating_add(1).min(order.len());
    let before = order[..split].iter().rposition(found);
    before.or_else(|| Some(split + order[split..].iter().position(found)?))
}

/// RAII guard for one scheduler stage (created by
/// [`TensorCache::stage_scope`]).
///
/// Entry actions ran when the guard was created; dropping the guard runs
/// the exit actions (see [`TensorCache::stage_scope`] for what each
/// stage's exit waits for) and emits the stage's span (category `stage`)
/// into the cache's trace sink, closing the window between the paper's
/// Algorithm 1 lines 9 and 15.
#[must_use = "dropping the scope immediately would end the stage before it ran"]
#[derive(Debug)]
pub struct StageScope<'c> {
    cache: &'c TensorCache,
    stage: StageHint,
    enter: SimTime,
}

impl StageScope<'_> {
    /// The stage this guard covers.
    pub fn stage(&self) -> StageHint {
        self.stage
    }

    /// Algorithm 1 lines 10–13 (`tc.set_next_stage(nxcmd)`): announces
    /// the *upcoming* stage; an upcoming backward pass prefetches the
    /// tail modules so their first reloads overlap the end of forward.
    pub fn announce_next(&self, next: StageHint) {
        if matches!(next, StageHint::Backward) {
            self.cache.prefetch_last_module();
        }
    }
}

impl Drop for StageScope<'_> {
    fn drop(&mut self) {
        self.cache.exit_stage(self.stage, self.enter);
    }
}

impl SavedTensorHooks for TensorCache {
    fn pack(&self, tensor: &Tensor) -> Packed {
        let mut st = self.state.lock();
        match self.store(&mut st, tensor, OffloadClass::Activation) {
            Some(id) => Packed::Opaque(id),
            None => Packed::Tensor(tensor.clone()),
        }
    }

    fn unpack(&self, packed: &Packed) -> Tensor {
        match packed {
            // Algorithm 2, line 20.
            Packed::Tensor(t) => t.clone(),
            Packed::Opaque(id) => self
                .consume(&mut self.state.lock(), *id)
                .unwrap_or_else(|| panic!("unpack of unknown record {id}")), // ssdtrain-lint: allow(panic-free-hot-path): unpack of an unregistered id is an engine-integration bug, not a recoverable runtime failure
        }
    }
}

impl ModuleHooks for TensorCache {
    fn forward_pre(&self, scope: &ScopeInfo) {
        let mut st = self.state.lock();
        if st.phase != Phase::Forward {
            return;
        }
        st.current_mb = scope.micro_batch;
        st.stack.push(scope.seq);
        st.scopes.insert(
            scope.seq,
            ScopeMeta {
                path: scope.path.clone(),
                records: Vec::new(),
                enter: self.io.clock().now(),
                fwd_secs: 0.0,
                offload_bytes: 0,
                store_secs: 0.0,
                load_secs: 0.0,
            },
        );
        st.forward_order
            .entry(scope.micro_batch)
            .or_default()
            .push(scope.seq);
    }

    fn forward_post(&self, scope: &ScopeInfo) {
        let mut st = self.state.lock();
        if st.phase != Phase::Forward {
            return;
        }
        let now = self.io.clock().now();
        if let Some(meta) = st.scopes.get_mut(&scope.seq) {
            meta.fwd_secs = now.since(meta.enter);
        }
        if st.stack.last() == Some(&scope.seq) {
            st.stack.pop();
        }
    }

    fn backward_pre(&self, scope: &ScopeInfo) {
        // Prefetch the activations of the modules processed next in
        // backward order, i.e. the nearest earlier modules in forward
        // order that hold records (Section 3.3.2). Depth > 1 keeps the
        // read channel saturated across module boundaries.
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mb = scope.micro_batch;
        let g = self.config.prefetch_group_modules;
        // Backward enters scopes in reverse forward order: the next one
        // is in the group the walk has reached or just below it, and the
        // first one is the last.
        let reached = st.lookahead.get(&mb).map(|la| la.cur * g + g - 1);
        let hint = reached.unwrap_or(usize::MAX);
        let order = st.forward_order.get(&mb);
        let Some(pos) = order.and_then(|o| position_near(o, hint, scope.seq)) else {
            return;
        };
        if self.config.prefetch && g > 0 {
            self.look_ahead(st, mb, pos / g);
            return;
        }
        self.prefetch_before(st, mb, pos, self.config.prefetch_depth.max(1));
    }

    fn backward_post(&self, scope: &ScopeInfo) {
        // Algorithm 2 lines 8–10: drop this scope from its records and
        // release records nobody references.
        let mut st = self.state.lock();
        st.for_scope_records(scope.seq, |st, id| {
            let Some(rec) = st.records.get_mut(&id) else {
                return;
            };
            rec.scopes.remove(scope.seq);
            if rec.scopes.is_empty() {
                self.release_record(st, id);
            }
        });
    }

    fn phase_changed(&self, phase: Phase) {
        let mut st = self.state.lock();
        if st.phase == Phase::Forward && phase == Phase::Backward {
            st.fwd_secs = self.io.clock().now().since(st.fwd_start);
        }
        st.phase = phase;
    }
}

impl std::fmt::Debug for TensorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("TensorCache")
            .field("records", &st.records.len())
            .field("phase", &st.phase)
            .field("stats", &st.stats)
            .finish()
    }
}
