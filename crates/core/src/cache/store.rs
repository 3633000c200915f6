//! The store path: admission, staging into segments, seal and submit,
//! commit-and-recover, withdrawal (forwarding and cancellation), state-slot
//! offload and release, and the store drain a stage exit waits for.

use super::record::{Payload, RecState, Record, RecordId, ScopeSet, Segment, State, StateSlot};
use super::TensorCache;
use crate::coalesce::SealedSegment;
use crate::config::{RecoveryPolicy, MAX_IO_RETRIES};
use crate::error::OffloadError;
use crate::id::{storage_stamp, tensor_key};
use crate::io::JobId;
use crate::placement::OffloadClass;
use crate::target::BatchItem;
use crate::tier::{TierId, TierPlacement};
use ssdtrain_simhw::SimTime;
use ssdtrain_tensor::Tensor;
use ssdtrain_trace::{ArgValue, TraceCategory};
use std::io;

impl TensorCache {
    /// Store drain: seals the open segments and advances the simulated
    /// clock to the last submitted store's completion, whatever its
    /// class. The exposed time — the drain minus whatever compute
    /// already covered it — lands in
    /// [`OffloadStats::store_stall_secs`](crate::OffloadStats::store_stall_secs)
    /// and, per link, in the tier counters' `stall_secs`, with a
    /// `tier.drain.<link>` span ([`TraceCategory::Tier`]) over each
    /// link's exposed window. A fully-overlapped drain is free: no time
    /// passes, no span or counter is emitted.
    ///
    /// A [`StageScope`](super::StageScope) calls this for every class
    /// only when a backward or optimizer stage exits; the other exits
    /// wait for state-class stores alone (see
    /// [`TensorCache::stage_scope`]). Write-link speed therefore reaches
    /// the step clock as `max(forward + backward compute, store drain)`,
    /// not per stage.
    pub fn drain_stores(&self) {
        self.drain_store_queues(&mut self.state.lock(), true);
    }

    /// Seals the open segments — no staged byte outlives the stage that
    /// produced it — then waits for the store queues: for every job when
    /// `every_class`, otherwise only until the last state-class store
    /// landed (activation jobs queued behind it keep running). Returns
    /// the time the wait began.
    pub(super) fn drain_store_queues(&self, st: &mut State, every_class: bool) -> SimTime {
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
            return now0;
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
        now0
    }

    /// Flags every optimizer-state slot whose store ends after
    /// `drain_start`, the moment backward's exit began to wait for the
    /// store queues: that write-back was exposed. Only steps under a
    /// profiled plan teach this (see [`TensorCache::release_state_late`]);
    /// what a profiling step flags, its end forgets.
    pub(super) fn flag_late_state(&self, st: &mut State, drain_start: SimTime) {
        if !st.plan_profiled {
            return;
        }
        // State commits at submit, so `avail` is its store's end.
        for rec in st.records.values_mut() {
            if rec.class == OffloadClass::OptimizerState && rec.avail > drain_start {
                rec.late = true;
            }
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

    /// Drops a state slot, returning its tier reservation and, if it was
    /// read ahead, its bytes to the look-ahead's headroom. Bytes still
    /// offloaded are abandoned on the tier (the optimizer overwrites
    /// state wholesale each step; there is nothing to read back).
    pub fn release_state(&self, slot: StateSlot) {
        self.release_state_late(slot);
    }

    /// [`TensorCache::release_state`], answering whether the slot's
    /// write-back was late: a backward exit under the plan
    /// [`TensorCache::end_profile_step`] applied waited for its store.
    /// Such a store cannot hide behind compute, so the slot's owner keeps
    /// the next state on the GPU instead ([`TensorCache::keep_state`]) —
    /// the state-class twin of a module the adaptive plan keeps. Flags
    /// learned before the last profiling step are forgotten.
    pub fn release_state_late(&self, slot: StateSlot) -> bool {
        // Committed at submit and owned by its caller: a slot has no
        // store to settle and no memory of the cache's to free.
        let mut st = self.state.lock();
        let Some(rec) = st.records.remove(&slot.0) else {
            return false;
        };
        if rec.read_ahead {
            st.read_ahead_bytes = st.read_ahead_bytes.saturating_sub(rec.bytes);
        }
        drop(st);
        self.drop_from_tier(&rec);
        rec.late
    }

    /// Records a state tensor its owner keeps on the GPU instead of
    /// offloading it: its bytes count in the class's `kept_bytes` and a
    /// `state.keep` instant (`bytes`, `class`) marks it. Nothing is
    /// stored, so the trace identity over `store.enqueue` is untouched.
    pub fn keep_state(&self, tensor: &Tensor, class: OffloadClass) {
        let bytes = tensor.bytes();
        let mut st = self.state.lock();
        st.stats.class_mut(class).kept_bytes += bytes;
        if st.trace.is_enabled() {
            let now = self.io.clock().now();
            let args = class_args(bytes, class);
            st.trace
                .instant_with(TraceCategory::Store, "state.keep", now, args);
        }
    }

    /// The one store path — `pack` (Algorithm 2) and every state slot:
    /// the keep/offload decision, deduplication, tier admission, then a new
    /// record staged towards its store job. Returns the record's id, or
    /// `None` when the tensor stays where it is.
    pub(super) fn store(
        &self,
        st: &mut State,
        tensor: &Tensor,
        class: OffloadClass,
    ) -> Option<RecordId> {
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
        let mut at = None;
        if let Some(seq) = cur_scope {
            scopes.insert(seq);
            if let Some(meta) = st.scopes.get_mut(&seq) {
                at = Some((meta.pos, meta.records.len()));
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
                read_ahead: false,
                late: false,
                at,
            },
        );
        st.stats.offloaded_bytes += bytes;
        if spilled {
            st.stats.spilled_bytes += bytes;
        }
        st.stats.class_mut(class).offloaded_bytes += bytes;

        // Placement skipped a full tier: its open segment cannot grow
        // any more, so it seals now rather than pinning its members' GPU
        // bytes until the stage exits.
        if spilled {
            while let Some(seg) = st.coalescer.seal_ahead_of(tier) {
                self.submit_sealed(st, seg);
            }
        }
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
    /// ([`OffloadStats::store_jobs`](crate::OffloadStats::store_jobs)
    /// counts segments, not tensors) and
    /// will be one device write operation at commit; byte and class
    /// accounting stayed per record at stage time, so the trace identity
    /// `Σstore.enqueue − Σstore.cancel − recoveries == offloaded_bytes`
    /// holds whatever the segment size.
    pub(super) fn submit_segment(
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
        // Only activations coalesce, so a segment has one class.
        let class = st.records[&st.seg_members[first]].class;
        for i in range.clone() {
            if let Some(rec) = st.records.get_mut(&st.seg_members[i]) {
                rec.state = RecState::Storing { job };
            }
        }
        st.segments.push(Segment {
            job,
            live: true,
            members: range,
            unsettled: 0,
        });
        st.stats.store_jobs += 1;
        st.stats.class_mut(class).stores += 1;
    }

    /// Submits a segment the coalescer sealed. The `coalesce_*` counters
    /// and the `coalesce.seal` instant describe coalescing only:
    /// segments of one sealed without the coalescer stay silent here.
    pub(super) fn submit_sealed(&self, st: &mut State, seg: SealedSegment) {
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
    pub(super) fn seal_open_segments(&self, st: &mut State) {
        for seg in st.coalescer.seal_all() {
            self.submit_sealed(st, seg);
        }
    }

    /// Commits the segment riding `job`: one batched device write for
    /// every member still riding it (members forwarded after sealing are
    /// skipped — their bytes never leave memory), memory freed at the
    /// job's completion time. Idempotent: the commit marks the segment
    /// no longer live. A failed write degrades the *segment* per the
    /// configured [`RecoveryPolicy`], not per tensor.
    pub(super) fn commit_segment(&self, st: &mut State, job: JobId) {
        let Some(seg) = st.live_segment(job) else {
            return;
        };
        seg.live = false;
        let (members, unsettled) = (seg.members.clone(), seg.unsettled);
        st.unsettled -= unsettled;
        let (start, end) = self.io.store_span(job);
        let mut batch = std::mem::take(&mut st.commit_scratch);
        st.staging.clear();
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
            // time); the simulated transfer finished at `end`. Members
            // serialise back to back into the one staging buffer.
            let at = st.staging.len();
            let staged = rec.tensor.storage().append_bytes(&mut st.staging);
            batch.push((id, staged.then_some(at..st.staging.len())));
        }
        let Some((head, _)) = batch.first() else {
            st.commit_scratch = batch;
            return;
        };
        let tier = st.records[head].tier;
        // The batch borrows keys and staged payloads; a segment of one is
        // built on the stack.
        fn item<'a>(st: &'a State, m: &'a Payload) -> BatchItem<'a> {
            let rec = &st.records[&m.0];
            (&rec.key, staged(&st.staging, m), rec.bytes)
        }
        let written = match batch.as_slice() {
            [only] => self.tiers.write_segment(tier, &[item(st, only)]),
            all => {
                let items: Vec<_> = all.iter().map(|m| item(st, m)).collect();
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
                    let storage = rec.tensor.storage();
                    let values = self.mem.with_time(end, || storage.release_values());
                    st.spare_values.extend(values);
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
        // Whatever the outcome, the arena slabs' job is done.
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
    /// individually (they keep their identity), each with its own slice
    /// of the staging buffer the commit filled, the keep-resident
    /// policies absorb the whole segment at once.
    pub(super) fn recover_failed_segment(
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
        for member in batch {
            let Some(rec) = st.records.get_mut(&member.0) else {
                continue;
            };
            let demoted = if fallback {
                let (data, retries) = (staged(&st.staging, member), MAX_IO_RETRIES);
                self.tiers.demote(tier, &rec.key, data, rec.bytes, retries)
            } else {
                None
            };
            match demoted {
                Some(lower) => {
                    let storage = rec.tensor.storage();
                    let values = self.mem.with_time(end, || storage.release_values());
                    st.spare_values.extend(values);
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
    /// skips this member. Forwarded bytes are charged to the module that
    /// saved the record: one the profiling backward forwarded whole is
    /// kept on the GPU from then on
    /// ([`TensorCache::end_profile_step`]).
    pub(super) fn withdraw(&self, st: &mut State, id: RecordId, now: SimTime, forwarded: bool) {
        let Some(rec) = st.records.get_mut(&id) else {
            return;
        };
        let (bytes, class, scope) = (rec.bytes, rec.class, rec.scopes.min());
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
            let sole = st.live_segment(job).filter(|s| s.members.len() == 1);
            if let Some(seg) = sole.filter(|_| self.config.cancel_forwarded_stores) {
                unqueued = self.io.try_cancel_store(job, now);
                seg.live = !unqueued;
            }
        }
        if forwarded {
            if let Some(meta) = scope.and_then(|s| st.scopes.get_mut(&s)) {
                meta.forwarded_bytes += bytes;
            }
            st.stats.forwarded += 1;
            st.stats.forwarded_bytes += bytes;
        }
        let stats = &mut st.stats;
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

    pub(super) fn release_record(&self, st: &mut State, id: RecordId) {
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
                // landed; releasing earlier would be double-counting. The
                // release moves with the read if it is pushed back.
                RecState::Loading { read, avail } => {
                    let floor = avail.max(now);
                    let at = self.landing(read, floor);
                    let storage = rec.tensor.storage();
                    let ((), events) = self.mem.with_time_logged(at, || storage.release());
                    self.io.track_landing(read, events, floor);
                }
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
    pub(super) fn drop_from_tier(&self, rec: &Record) {
        if rec.stored {
            self.tiers.remove(rec.tier, &rec.key, rec.bytes);
        } else {
            self.tiers.unreserve(rec.tier, rec.bytes);
        }
    }
}

/// A segment member's serialised payload: its slice of the staging
/// buffer, `None` in symbolic execution.
fn staged<'a>(staging: &'a [u8], (_, at): &Payload) -> Option<&'a [u8]> {
    at.clone().map(|r| &staging[r])
}

/// A byte-carrying store-path event's arguments: `bytes`, plus `class`
/// for a state-class record (activations are the default lane and carry
/// none), so each class's lane of the trace identity can be summed.
pub(super) fn class_args(bytes: u64, class: OffloadClass) -> Vec<(&'static str, ArgValue)> {
    let mut args = vec![("bytes", ArgValue::U64(bytes))];
    if class != OffloadClass::Activation {
        args.push(("class", ArgValue::from(class.label())));
    }
    args
}
