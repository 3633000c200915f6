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
//! in the [`WriteCoalescer`](crate::WriteCoalescer) for company.
//! Admission, commit-and-recover, forwarding and reload each exist once,
//! for all three classes.
//!
//! Memory-accounting subtlety: an offloaded tensor's GPU memory is freed
//! *when its store completes*, which is in the simulated future at the
//! time we learn it. The cache therefore defers the release and stamps
//! the free event with the store's completion time
//! ([`ssdtrain_simhw::GpuMemory::with_time`]); a tensor that ends up
//! forwarded was never actually released, and no event is emitted.

use crate::adaptive::{AdaptivePlan, ModuleProfile, StepProfile};
use crate::config::TensorCacheConfig;
use crate::costmodel::CostModel;
use crate::error::OffloadError;
use crate::id::storage_stamp;
use crate::io::IoEngine;
use crate::stats::OffloadStats;
use crate::tier::{TierCounters, TierId, TierStack};
use parking_lot::Mutex;
use prefetch::Prefetcher;
use record::{RecState, RecordId, State};
use ssdtrain_autograd::Phase;
use ssdtrain_simhw::{BufferArena, GpuMemory, PinnedSlab, SimTime};
use ssdtrain_tensor::Tensor;
use ssdtrain_trace::{ArgValue, TraceCategory, TraceSink};
use std::borrow::Cow;
use std::sync::Arc;

pub use record::StateSlot;

mod hooks;
mod load;
mod prefetch;
mod record;
mod store;

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

/// The SSDTrain tensor cache.
///
/// One instance serves one (simulated) GPU. Register it on a graph with
/// [`TensorCache::install`].
///
/// # Failure handling
///
/// Offload-target failures (a vanished spill directory, an exhausted
/// host pool, an injected fault) do **not** panic: store failures are
/// recovered per the configured [`RecoveryPolicy`](crate::RecoveryPolicy)
/// — the tensor stays resident, optionally re-routed to a fallback
/// target — and load failures are retried and then surfaced as a
/// structured [`OffloadError`] via [`TensorCache::take_error`] at the end
/// of the step. The only remaining hook panic is unpacking an opaque value
/// after its records were released, which is an engine-integration bug
/// rather than a recoverable condition.
///
/// ```
/// use ssdtrain::{CpuTarget, IoEngine, TensorCache, TensorCacheConfig, TierStack};
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
/// let cache = TensorCache::with_tiers(
///     TensorCacheConfig::offload_everything(),
///     Arc::new(TierStack::single(Arc::new(CpuTarget::new(1 << 30)))),
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
    /// The prefetcher every backward pass runs, read once from `config`.
    prefetcher: Prefetcher,
    /// The cache's one lock. Every public method and hook takes it once
    /// at entry and hands `&mut State` down; private methods never lock,
    /// so re-acquisition is a borrow error, not a deadlock. The tiers'
    /// reservations and counters live in `State` too. Layer order while
    /// it is held: cache → {target → io, io → {clock, trace, mem}, mem,
    /// arena} — nothing below ever calls back up.
    state: Mutex<State>,
}

impl TensorCache {
    /// Creates a cache over an ordered tier stack (one offload target is
    /// a [`TierStack::single`]); each tier's transfers
    /// are priced on the link of `io` that the `link` argument of its
    /// [`Tier::new`](crate::Tier::new) names (so build the engine with
    /// [`IoEngine::tiered_with_bus`] and matching link indices).
    /// The engine is handed `mem`, where the cache stamps each reload's
    /// landing.
    pub fn with_tiers(
        config: TensorCacheConfig,
        tiers: Arc<TierStack>,
        io: IoEngine,
        mem: Arc<GpuMemory>,
    ) -> Arc<TensorCache> {
        io.set_memory(mem.clone());
        let state = Mutex::new(State::new(config.coalesce_segment_bytes, &tiers));
        let prefetcher = match (config.prefetch_depth, config.prefetch_group_modules) {
            (0, _) => Prefetcher::Off,
            (depth, 0) => Prefetcher::PerModule { depth },
            (floor, group) => Prefetcher::Groups { group, floor },
        };
        Arc::new(TensorCache {
            config,
            tiers,
            io,
            mem,
            arena: BufferArena::new(),
            prefetcher,
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

    /// Takes the first offload failure recovery could not absorb this
    /// step, if any. The training loop calls this at the step boundary;
    /// under [`RecoveryPolicy::FailStep`](crate::RecoveryPolicy::FailStep)
    /// a store failure lands here, and a permanently failed load lands
    /// here under every policy.
    pub fn take_error(&self) -> Option<OffloadError> {
        self.state.lock().pending_error.take()
    }

    /// Whether a failure [`TensorCache::take_error`] would return is
    /// waiting — asked without taking it, by code that must stop acting
    /// on a tainted step before the step boundary reports it.
    pub fn has_error(&self) -> bool {
        self.state.lock().pending_error.is_some()
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

    /// The tier stack: each tier's name, device, capacity and link (its
    /// step counters are [`OffloadStats::tiers`]).
    pub fn tiers(&self) -> &Arc<TierStack> {
        &self.tiers
    }

    /// Live pack-time reservations against `tier`.
    pub fn reserved_bytes(&self, tier: TierId) -> u64 {
        self.state.lock().ledger.reserved_bytes(tier)
    }

    /// Snapshot of this step's statistics, per-tier counters included.
    /// Tier timing (store-drain stalls, link busy time) is overlaid
    /// from the I/O engine so the snapshot and the trace agree. The tier
    /// and class lists are [`Lent`](ssdtrain_tensor::Lent).
    pub fn stats(&self) -> OffloadStats {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.stats.tiers.clear();
        let counters = self.tier_counters(st.ledger.counters(), &st.link_stalls);
        st.stats.tiers.to_mut().extend(counters);
        let mut stats = st.stats.clone();
        let arena = self.arena.stats();
        stats.arena_high_water_bytes = arena.high_water_bytes;
        stats.arena_slab_reuses = arena.slab_reuses;
        stats
    }

    /// The tiers' step `counters` with their timing overlaid from the
    /// I/O engine and the links' `stalls`. A link's stall and busy
    /// seconds go to the first tier priced on it only: a demotion tier on
    /// the front tier's link (the fallback target of
    /// [`RecoveryPolicy::FallbackTarget`](crate::RecoveryPolicy::FallbackTarget))
    /// reports 0, so the tiers' busy seconds sum to the engine's.
    fn tier_counters<'a>(
        &'a self,
        counters: &'a [TierCounters],
        stalls: &'a [f64],
    ) -> impl Iterator<Item = TierCounters> + 'a {
        let link_of = |i| self.tiers.link(TierId(i));
        counters.iter().enumerate().map(move |(i, counters)| {
            let mut counters = counters.clone();
            let link = link_of(i);
            if (0..i).all(|j| link_of(j) != link) {
                counters.stall_secs = stalls.get(link).copied().unwrap_or(0.0);
                counters.write_busy_secs = self.io.write_busy_secs_on(link);
                counters.read_busy_secs = self.io.read_busy_secs_on(link);
            }
            counters
        })
    }

    /// A [`CostModel`] over this cache's links and tiers as currently
    /// priced — what the capacity bench prices state jobs on without
    /// replaying them.
    pub fn cost_model(&self) -> CostModel {
        CostModel::from_parts(&self.io, &self.tiers)
            .with_segment_bytes(self.config.coalesce_segment_bytes)
    }

    /// The pinned staging arena (high-water and reuse telemetry).
    pub fn arena(&self) -> &BufferArena {
        &self.arena
    }

    /// The adaptive plan currently applied.
    pub fn plan(&self) -> AdaptivePlan {
        self.state.lock().plan.clone()
    }

    /// Overrides the adaptive plan (tests, ablations). Steps under a plan
    /// set by hand flag no late state store
    /// ([`TensorCache::release_state_late`]).
    pub fn set_plan(&self, plan: AdaptivePlan) {
        let mut st = self.state.lock();
        st.plan = plan;
        st.plan_profiled = false;
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
        // The flush sealed and committed every staged byte, so the
        // coalescer's open segments are empty (it keeps their lists); a
        // fresh step starts with an arena high-water mark tracking only
        // the slabs that survived the boundary.
        self.arena.begin_step();
        st.stack.clear();
        // The scopes' record lists go back in reverse forward order, so
        // `forward_pre`'s pop hands each forward position the list it
        // filled last step, already long enough.
        let ordered = st.passes.iter().rev().flat_map(|p| p.order.iter().rev());
        for mut meta in ordered.filter_map(|seq| st.scopes.remove(seq)) {
            meta.records.clear();
            st.spare_scope_records.give(meta.records);
        }
        st.scopes.clear();
        st.phase = Phase::Forward;
        st.fwd_start = self.io.clock().now();
        st.forward = None;
        // Only state slots survived the flush. Their stores drained at
        // the previous step's optimizer barrier; on the fresh clock they
        // are available immediately, and a read still marked in flight
        // belongs to the queue just reset: it landed.
        for rec in st.records.values_mut() {
            rec.avail = SimTime::ZERO;
            rec.read_ahead = false;
            if matches!(rec.state, RecState::Loading { .. }) {
                rec.state = RecState::Resident;
            }
        }
        for pass in &mut st.passes {
            pass.order.clear();
            pass.start = None;
            pass.scheduled = false;
            pass.plan.clear();
            pass.next = 0;
            pass.hook = 0;
        }
        st.stats.reset();
        st.link_stalls.clear();
        st.ledger.reset_counters();
        // Failures during the flush above belong to the step that
        // already reported; the new step starts clean.
        st.pending_error = None;
    }

    /// Enables profiling for the next step: every eligible tensor is
    /// offloaded regardless of plan, and per-module transfer sizes,
    /// compute times and first store ends are collected (Section 3.3.3).
    /// Its backward's timing replaces the last profile's: later steps
    /// reload just in time from it (see
    /// [`TensorCacheConfig::prefetch_depth`]).
    pub fn begin_profile_step(&self) {
        self.begin_step();
        let mut st = self.state.lock();
        st.profiling = true;
        st.profile.hooks.clear();
        st.profile.first_use.clear();
    }

    /// Ends a profiling step: builds the [`StepProfile`], derives the
    /// adaptive plan (when enabled) and applies it to subsequent steps.
    ///
    /// Call it once the profiling backward is over: each module's
    /// deadline is then when that backward reached it (called at the
    /// forward/backward boundary instead, every deadline is forward's
    /// end). The plan also keeps every module whose stores were all
    /// still queued when forward ended. The forward-time totals were
    /// taken at that boundary either way.
    pub fn end_profile_step(&self) -> (StepProfile, AdaptivePlan) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        self.end_forward(st);
        st.profiling = false;
        let (profile, plan) = self.replan(st);
        // Late stores flagged under the old plan say nothing of the new.
        st.plan_profiled = true;
        for rec in st.records.values_mut() {
            rec.late = false;
        }
        (profile, plan)
    }

    /// Takes a profiling step's forward-time totals the first time it
    /// reaches the forward/backward boundary — the backward
    /// announcement, the phase switch or the profile's end, whichever
    /// comes first — so nothing backward forwards or cancels reaches
    /// them.
    fn end_forward(&self, st: &mut State) {
        if !st.profiling || st.forward.is_some() {
            return;
        }
        st.forward = Some(StepProfile {
            modules: Vec::new(),
            fwd_total_secs: self.io.clock().now().since(st.fwd_start),
            fwd_io_bytes: self.io.bytes_written(),
            fwd_io_secs: self.io.write_busy_secs(),
        });
    }

    /// Notes, in a profiling step, scope `seq`'s deadline at its first
    /// `backward_pre`: the seconds since the step's start less its stalls.
    fn note_deadline(&self, st: &mut State, seq: u64) {
        if let Some(meta) = st.scopes.get_mut(&seq).filter(|_| st.profiling) {
            let at = self.io.clock().now().since(st.fwd_start) - st.stats.stall_secs;
            meta.deadline.get_or_insert(at);
        }
    }

    /// Builds the current step's [`StepProfile`] from its scope metadata
    /// and forward-time totals, then derives and applies the adaptive
    /// plan from what the profiling step measured
    /// ([`AdaptivePlan::measured`]): each module's deadline (forward's end
    /// if backward never reached it) and first store end (never, if none).
    fn replan(&self, st: &mut State) -> (StepProfile, AdaptivePlan) {
        let order = st.passes.get(st.current_mb).map_or(&[][..], |p| &p.order);
        let forward = st.forward.clone().unwrap_or_default();
        let mut deadlines = Vec::new();
        let mut store_ends = Vec::new();
        let modules = order
            .iter()
            .filter_map(|seq| {
                let meta = st.scopes.get(seq)?;
                if meta.records.is_empty() {
                    return None;
                }
                deadlines.push(meta.deadline.unwrap_or(forward.fwd_total_secs));
                let end = meta.first_store_end.map(|t| t.since(st.fwd_start));
                store_ends.push(end.unwrap_or(f64::INFINITY));
                Some(ModuleProfile {
                    path: meta.path.clone(),
                    offload_bytes: meta.offload_bytes,
                    fwd_secs: meta.fwd_secs,
                    store_secs: 0.0,
                    load_secs: 0.0,
                })
            })
            .collect();
        let profile = StepProfile { modules, ..forward };
        let plan = if self.config.adaptive {
            AdaptivePlan::measured(&profile, &deadlines, &store_ends)
        } else {
            let paths: Vec<String> = profile.modules.iter().map(|m| m.path.clone()).collect();
            AdaptivePlan::keep_last_only(&paths)
        };
        st.plan = plan.clone();
        (profile, plan)
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
    /// # use ssdtrain::{CpuTarget, IoEngine, StageHint, TensorCache, TensorCacheConfig, TierStack};
    /// # use ssdtrain_simhw::{GpuMemory, SimClock};
    /// # use std::sync::Arc;
    /// # let clock = SimClock::new();
    /// # let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 30));
    /// # let io = IoEngine::new(clock, 1e9, 1e9);
    /// # let cache = TensorCache::with_tiers(
    /// #     TensorCacheConfig::offload_everything(),
    /// #     Arc::new(TierStack::single(Arc::new(CpuTarget::new(1 << 30)))),
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
    /// follows it, whichever that is (gradients streamed and state
    /// written back during backward at its exit, what `ReduceGrads`
    /// stores after it at its own).
    fn exit_stage(&self, stage: StageHint, enter: SimTime) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if matches!(stage, StageHint::Backward) {
            self.await_loads(st);
        }
        let every_class = matches!(stage, StageHint::Backward | StageHint::Optimizer);
        let drain_start = self.drain_store_queues(st, every_class);
        if matches!(stage, StageHint::Backward) {
            self.flag_late_state(st, drain_start);
        }
        if matches!(stage, StageHint::Optimizer) {
            self.emit_tier_io(st);
        }
        if st.trace.is_enabled() {
            let now = self.io.clock().now();
            st.trace
                .span(TraceCategory::Stage, stage.trace_label(), enter, now);
        }
    }

    /// Emits one `tier.io.<name>` instant per tier and one
    /// `class.io.<label>` instant per
    /// [`OffloadClass`](crate::OffloadClass) that saw traffic this step
    /// (at the optimizer stage's exit, i.e. the end of the step),
    /// carrying byte counts — the trace-side mirror of the
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
        for counters in self.tier_counters(st.ledger.counters(), &st.link_stalls) {
            if counters.bytes_written == 0 && counters.bytes_read == 0 {
                continue;
            }
            st.trace.instant_with(
                TraceCategory::Tier,
                format!("tier.io.{}", counters.name),
                now,
                vec![
                    ("bytes_written", ArgValue::U64(counters.bytes_written)),
                    ("bytes_read", ArgValue::U64(counters.bytes_read)),
                    ("write_busy_secs", ArgValue::F64(counters.write_busy_secs)),
                    ("read_busy_secs", ArgValue::F64(counters.read_busy_secs)),
                    ("stall_secs", ArgValue::F64(counters.stall_secs)),
                ],
            );
        }
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
        st.seg_landed = 0;
        st.unsettled = 0;
        st.read_ahead_bytes = 0;
        st.spare_values.clear();
        for pass in &mut st.passes {
            pass.lookahead = None;
            for (_, slab) in pass.slabs.drain(..) {
                self.retire_slab(&st.trace, slab);
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn innermost_kept(&self, st: &State) -> bool {
        let Some(seq) = st.stack.last().filter(|_| !st.profiling) else {
            return false;
        };
        st.scopes.get(seq).is_some_and(|meta| meta.kept)
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
