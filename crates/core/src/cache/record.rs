//! The cache's data model: the `Record` every offloaded tensor is, the
//! handles, segments and look-ahead cursors built on records, and the one
//! `State` behind the cache's lock.

use crate::adaptive::{AdaptivePlan, StepProfile};
use crate::coalesce::WriteCoalescer;
use crate::error::OffloadError;
use crate::id::{InlineKey, TensorKey};
use crate::io::{JobId, ReadId};
use crate::placement::OffloadClass;
use crate::stats::OffloadStats;
use crate::target::BatchItem;
use crate::tier::{TierId, TierLedger, TierStack};
use crate::{HashMap, HashSet};
use ssdtrain_autograd::Phase;
use ssdtrain_simhw::{PinnedSlab, SimTime};
use ssdtrain_tensor::{Spares, Tensor};
use ssdtrain_trace::TraceSink;
use std::ops::Range;

pub(super) type RecordId = u64;

/// A segment member on its way to the device: its id and where its
/// serialised payload sits in `State::staging` (`None` in symbolic
/// execution).
pub(super) type Payload = (RecordId, Option<Range<usize>>);

/// The one lifecycle every offloaded tensor follows, whatever its
/// [`OffloadClass`]: `Resident → Staged → Storing → Offloaded → Loading`
/// (and back to `Resident`).
#[derive(Debug, Clone, Copy)]
pub(super) enum RecState {
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
    /// A prefetched reload in flight: resident from `max(read end,
    /// avail)` on. The end is asked of the engine, never copied — a
    /// demand read queued since can have pushed it back.
    Loading { read: ReadId, avail: SimTime },
}

/// The module scopes (seq ids) still referencing a record. Almost every
/// record has exactly one — only deduplication adds more — so the first
/// lives inline and the set allocates nothing until a second arrives.
#[derive(Default)]
pub(super) struct ScopeSet {
    pub(super) first: Option<u64>,
    pub(super) more: Vec<u64>,
}

impl ScopeSet {
    pub(super) fn insert(&mut self, seq: u64) {
        if self.first.is_none() {
            self.first = Some(seq);
        } else if self.first != Some(seq) && !self.more.contains(&seq) {
            self.more.push(seq);
        }
    }

    pub(super) fn remove(&mut self, seq: u64) {
        if self.first == Some(seq) {
            self.first = self.more.pop();
        } else {
            self.more.retain(|s| *s != seq);
        }
    }

    pub(super) fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The earliest scope in forward order: the one that saved the
    /// record, which its offloaded and forwarded bytes are charged to.
    pub(super) fn min(&self) -> Option<u64> {
        self.more.iter().copied().chain(self.first).min()
    }
}

pub(super) struct Record {
    pub(super) key: TensorKey,
    pub(super) tensor: Tensor,
    pub(super) bytes: u64,
    pub(super) class: OffloadClass,
    pub(super) state: RecState,
    pub(super) scopes: ScopeSet,
    /// The tier holding (or about to hold) the bytes; demotion moves it.
    pub(super) tier: TierId,
    /// Pinned staging slab the bytes occupy while a store is staged or
    /// in flight; released exactly once when the staging retires.
    pub(super) slab: Option<PinnedSlab>,
    /// Whether the tier's device holds an entry under `key` (a write
    /// committed or a demotion landed): a record forwarded before its
    /// store committed has nothing there to remove.
    pub(super) stored: bool,
    /// Simulated time the record's store drains; a reload can never
    /// complete before it. Zero again after a step boundary (the
    /// optimizer-stage drain barrier guarantees every store landed
    /// before the step ended).
    pub(super) avail: SimTime,
    /// A state slot read ahead of its consumer
    /// ([`TensorCache::read_ahead_state`](super::TensorCache::read_ahead_state)):
    /// its bytes count in `State::read_ahead_bytes` until it is released.
    pub(super) read_ahead: bool,
    /// An optimizer-state slot whose store a backward exit under a
    /// profiled plan waited for: its write-back was exposed, so its owner
    /// keeps the next state on the GPU instead
    /// ([`TensorCache::release_state_late`](super::TensorCache::release_state_late)).
    pub(super) late: bool,
    /// Where the record was saved: the forward position of its scope and
    /// its index in that scope's `ScopeMeta::records`. The same pair
    /// names the same tensor from step to step, so a profile keyed by it
    /// applies to later steps. `None` for state slots.
    pub(super) at: Option<(usize, usize)>,
}

impl Record {
    /// State slots (gradients, optimizer state) survive
    /// [`TensorCache::flush`](super::TensorCache::flush) and step
    /// boundaries, are owned by their caller rather than by module
    /// scopes, and never deduplicate.
    pub(super) fn is_state(&self) -> bool {
        self.class != OffloadClass::Activation
    }

    /// Whether committing the record's store releases its GPU memory.
    /// Mirrors Python garbage collection (paper Section 3.2): an
    /// activation's memory is reclaimable only once the cache holds the
    /// *last* reference to the storage. If model code still holds the
    /// tensor (e.g. a step input reused across steps), the record simply
    /// stays resident. State slots are always held by their optimizer
    /// and are released regardless.
    pub(super) fn leaves_at_commit(&self) -> bool {
        self.is_state() || self.tensor.storage().strong_count() == 1
    }
}

/// Opaque handle to an offloaded state tensor (a gradient or optimizer
/// state slot created by
/// [`TensorCache::offload_state`](super::TensorCache::offload_state)).
/// Unlike activation records, state slots survive step boundaries:
/// optimizer state lives across steps and is reloaded by the next step's
/// optimizer jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateSlot(pub(super) RecordId);

/// What a reload is for: decides where it queues, the counter it lands
/// in and the state the record is left in.
#[derive(Clone, Copy)]
pub(super) enum Reload {
    /// `unpack` found the bytes offloaded: the caller stalls on them.
    Sync,
    /// Issued ahead of use by the backward prefetcher; `slack` is the
    /// planned first use less the planned landing, when the reload was
    /// planned just in time.
    Prefetch { slack: Option<f64> },
    /// [`TensorCache::load_state`](super::TensorCache::load_state): the
    /// caller stalls on the ready time.
    State,
    /// [`TensorCache::prefetch_state`](super::TensorCache::prefetch_state):
    /// the caller parks its work until the ready time.
    StatePrefetch,
}

impl Reload {
    /// A demand read: the caller stalls on it at once, so it goes ahead
    /// of the prefetches that have not started, and the record is
    /// resident when the call returns. Otherwise the read queues FIFO
    /// and the record is `Loading`.
    pub(super) fn demand(self) -> bool {
        matches!(self, Reload::Sync | Reload::State)
    }
}

#[derive(Default)]
pub(super) struct ScopeMeta {
    /// The module's path, kept in a profiling step only: the profile
    /// names its modules by it. Empty otherwise.
    pub(super) path: String,
    /// Whether the plan in force when the scope opened keeps the module
    /// ([`AdaptivePlan::keeps`]), asked once per scope, not per pack.
    pub(super) kept: bool,
    /// The scope's position in its micro-batch's forward order.
    pub(super) pos: usize,
    pub(super) records: Vec<RecordId>,
    pub(super) enter: SimTime,
    pub(super) fwd_secs: f64,
    /// In a profiling step, the compute seconds from the step's start to
    /// the scope's first `backward_pre`: when its offloads must have landed.
    pub(super) deadline: Option<f64>,
    pub(super) offload_bytes: u64,
    /// In a profiling step, when the earliest store of the records
    /// `offload_bytes` counts ends, as the I/O engine scheduled it at
    /// submission.
    pub(super) first_store_end: Option<SimTime>,
}

/// A segment sealed this step: one store job, one device write,
/// recovered as a unit.
pub(super) struct Segment {
    pub(super) job: JobId,
    /// Whether the job is still to be committed: cleared by the commit,
    /// or by a cancellation, after which the engine knows no end for it.
    pub(super) live: bool,
    /// The members' range in `State::seg_members`.
    pub(super) members: Range<usize>,
    /// What [`TensorCache::note_landed`](super::TensorCache::note_landed)
    /// added to `State::unsettled` for this segment; the commit takes it
    /// back.
    pub(super) unsettled: u64,
}

/// Where one micro-batch's backward pass stands in the group
/// prefetcher's consumption-ordered walk (see
/// [`TensorCache::look_ahead`](super::TensorCache::look_ahead)).
#[derive(Clone, Copy)]
pub(super) struct Lookahead {
    /// Activation bytes resident when the pass was announced — Figure
    /// 7's "beginning of backward" point. Groups beyond the
    /// `prefetch_depth` floor, and state slots read ahead, are issued
    /// only while their reloads fit under it.
    pub(super) bound: u64,
    /// Every group at or above this index was issued or holds no
    /// records; the walk only ever moves it down, so no group loads
    /// twice.
    pub(super) next: usize,
    /// The group backward is consuming (the lowest one it has entered).
    pub(super) cur: usize,
}

/// What the profiling backward saw of micro-batch 0 (the one
/// `TrainSession::profile_step` runs), in compute seconds after the
/// backward announcement (the stalls since it subtracted, so a profile
/// taken on a slow link still times the compute). Every micro-batch of a
/// later step plans from it: its keys are positions within one
/// micro-batch's forward, which every micro-batch repeats.
#[derive(Default)]
pub(super) struct Consumption {
    /// The offset of every backward hook — each unpack of a record and
    /// each `backward_pre` — in the order they ran.
    pub(super) hooks: Vec<f64>,
    /// Each record's first consuming unpack, as an index into `hooks`,
    /// keyed by where the record was saved ([`Record::at`]).
    pub(super) first_use: HashMap<(usize, usize), usize>,
}

/// One reload the just-in-time prefetcher planned.
#[derive(Clone, Copy)]
pub(super) struct JitReload {
    pub(super) id: RecordId,
    /// The hook of its first use (an index into `Consumption::hooks`).
    pub(super) first: usize,
    /// Seconds the read takes on the read bus.
    pub(super) dur: f64,
    /// Offset at which the record's store lands: the read never lands
    /// before it.
    pub(super) avail: f64,
    /// The latest offset the read may start at and still land by its
    /// first use and before the next planned read starts.
    pub(super) start: f64,
    /// The first use less the planned landing, seconds.
    pub(super) slack: f64,
}

/// Micro-batch mb's pass (`State::passes[mb]`), whichever prefetcher
/// runs its backward. Its buffers are cleared per step, never replaced.
#[derive(Default)]
pub(super) struct Pass {
    /// The scope seqs of the pass's forward, in the order they entered.
    pub(super) order: Vec<u64>,
    /// Clock and stall seconds when the pass was announced (or, if it
    /// was not, entered); `None` before that. A hook's offset is its
    /// time since, less the stalls since.
    pub(super) start: Option<(SimTime, f64)>,
    /// Whether this step's reloads follow `plan` (a profiled step): then
    /// the plan issues every prefetch, and a record it does not hold is
    /// reloaded on demand at its unpack.
    pub(super) scheduled: bool,
    /// This step's planned reloads in first-use order, whose latest
    /// starts ascend; the buffer is kept from step to step.
    pub(super) plan: Vec<JitReload>,
    /// The first planned reload not issued yet.
    pub(super) next: usize,
    /// The first recorded hook not yet reached.
    pub(super) hook: usize,
    /// The group look-ahead's cursor, from the backward announcement (or
    /// the pass's first `backward_pre`) on.
    pub(super) lookahead: Option<Lookahead>,
    /// The groups in flight at or ahead of backward's consumption point,
    /// in issue order (by descending index), each with its staging slab
    /// (`None` for no bytes).
    pub(super) slabs: Vec<(usize, Option<PinnedSlab>)>,
}

/// Everything the cache mutates, behind its one lock: the bookkeeping
/// all runs on the training thread (the paper's worker pools only move
/// bytes), so one lock around it is the faithful shape. A micro-batch's
/// state lives in its [`Pass`], a store job's in its [`Segment`].
#[derive(Default)]
pub(super) struct State {
    pub(super) records: HashMap<RecordId, Record>,
    /// Each live activation record under its key, held inline.
    pub(super) by_key: HashMap<InlineKey, RecordId>,
    /// The shape buffers of released records' keys, for new records'
    /// keys: a buffer comes back only after its record's tier entry was
    /// dropped under the key it held (`TensorCache::drop_from_tier`).
    pub(super) spare_shapes: Spares<Vec<usize>>,
    pub(super) next_id: RecordId,
    pub(super) param_stamps: HashSet<u64>,
    /// Innermost-first stack of open forward scopes (seq ids).
    pub(super) stack: Vec<u64>,
    pub(super) scopes: HashMap<u64, ScopeMeta>,
    /// The record lists of the last step's scopes, emptied, for this
    /// step's scopes to fill.
    pub(super) spare_scope_records: Spares<Vec<RecordId>>,
    pub(super) current_mb: usize,
    pub(super) phase: Phase,
    pub(super) profiling: bool,
    /// Whether the plan in force is the one a profiling step derived
    /// ([`TensorCache::end_profile_step`](super::TensorCache::end_profile_step)),
    /// not one set by hand: only then do backward exits flag late
    /// optimizer-state stores.
    pub(super) plan_profiled: bool,
    pub(super) fwd_start: SimTime,
    /// A profiling step's forward-time totals (`modules` left empty),
    /// taken once, at the forward/backward boundary
    /// ([`TensorCache::end_forward`](super::TensorCache::end_forward)).
    pub(super) forward: Option<StepProfile>,
    /// Every segment sealed this step, in submission order, committed
    /// and cancelled ones too. Job ids ascend in it (the engine resets
    /// them only at `begin_step`, after the flush cleared the list), and
    /// on the one write FIFO submission order is completion order: the
    /// stores of every live segment before `seg_landed` have landed (see
    /// [`TensorCache::note_landed`](super::TensorCache::note_landed)).
    pub(super) segments: Vec<Segment>,
    /// Member ids of every segment sealed this step, back to back.
    pub(super) seg_members: Vec<RecordId>,
    pub(super) seg_landed: usize,
    /// Activation bytes whose store has landed but whose commit — lazy:
    /// it runs when something reaches the record — has not released
    /// them yet. The memory counter over-reads by exactly this much.
    pub(super) unsettled: u64,
    /// Reused by every commit: the members still riding the job and
    /// where their payloads sit in `staging`.
    pub(super) commit_scratch: Vec<Payload>,
    /// Reused by every commit of more than one member: the buffer of the
    /// batch handed to the tier, kept empty between commits (its items
    /// borrow the records and `staging`, so it is relent per commit).
    pub(super) batch_scratch: Vec<BatchItem<'static>>,
    /// The one host staging buffer of the spill path, cleared per use and
    /// never freed: a commit serialises its segment's members into it
    /// back to back, and a reload that has to copy the bytes somewhere
    /// reads them into it. Commit and reload never overlap under the
    /// cache's one lock. Symbolic runs never grow it. The values a
    /// reload decodes go to a buffer from `spare_values` instead.
    pub(super) staging: Vec<u8>,
    /// The values successful commits released this step, for reloads to
    /// decode into: a reload takes one of its record's element count —
    /// normally the one its own commit just released — and allocates
    /// only when none fits. Dropped at the step's flush, so no buffer
    /// outlives its step (DESIGN §10, *Real bytes*).
    pub(super) spare_values: Vec<Vec<f32>>,
    /// Reused by every group request: the group's record ids in the
    /// order backward will read them.
    pub(super) group_scratch: Vec<RecordId>,
    /// State bytes read ahead of their consumer whose slots are not
    /// released yet: they spend the look-ahead's headroom beside the
    /// activation level.
    pub(super) read_ahead_bytes: u64,
    /// Each micro-batch's pass, indexed by micro-batch.
    pub(super) passes: Vec<Pass>,
    /// The last profiling backward's consumption, which every pass plans
    /// from; it outlives the step and is replaced by the next profiling
    /// step.
    pub(super) profile: Consumption,
    /// The write coalescer between `pack` and the per-tier store queues
    /// (unused when `TensorCacheConfig::coalesce_segment_bytes` is 0:
    /// every staged record then seals at once, a segment of one).
    pub(super) coalescer: WriteCoalescer,
    /// What the tiers hold: each one's live reservations and step
    /// counters, kept here so the cache's one lock covers them.
    pub(super) ledger: TierLedger,
    pub(super) stats: OffloadStats,
    pub(super) plan: AdaptivePlan,
    /// Per-link store-drain stall time this step (see
    /// [`TensorCache::drain_stores`](super::TensorCache::drain_stores));
    /// indexed by I/O link.
    pub(super) link_stalls: Vec<f64>,
    pub(super) pending_error: Option<OffloadError>,
    pub(super) trace: TraceSink,
}

impl State {
    pub(super) fn new(coalesce_segment_bytes: u64, tiers: &TierStack) -> State {
        State {
            coalescer: WriteCoalescer::new(coalesce_segment_bytes),
            ledger: TierLedger::new(tiers),
            ..State::default()
        }
    }

    /// Micro-batch `mb`'s pass, the passes up to it made first.
    pub(super) fn pass(&mut self, mb: usize) -> &mut Pass {
        if self.passes.len() <= mb {
            self.passes.resize_with(mb + 1, Pass::default);
        }
        &mut self.passes[mb]
    }

    /// The segment riding `job`, found by binary search (job ids ascend
    /// in `segments`); `None` once it is no longer live.
    pub(super) fn live_segment(&mut self, job: JobId) -> Option<&mut Segment> {
        let i = self.segments.binary_search_by_key(&job, |s| s.job).ok()?;
        Some(&mut self.segments[i]).filter(|s| s.live)
    }

    /// Runs `f` on each record id of scope `seq`. The scope's list is
    /// lent out for the walk — nothing on the store or load path edits a
    /// scope's record list — so no copy is made.
    pub(super) fn for_scope_records(&mut self, seq: u64, mut f: impl FnMut(&mut State, RecordId)) {
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
