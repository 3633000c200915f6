//! Backward prefetching, one [`Prefetcher`] per pass: the per-tensor one
//! (a profiled pass reloads only what its plan holds, just in time, and a
//! record the profile missed is a demand reload; any other pass walks a
//! depth ahead), or the group look-ahead and the state reads ahead of it,
//! bounded by the memory backward hands back.

use super::record::{JitReload, Lookahead, RecState, RecordId, Reload, State, StateSlot};
use super::TensorCache;
use ssdtrain_simhw::SimTime;
use ssdtrain_tensor::MemClass;
use ssdtrain_trace::{ArgValue, TraceCategory};

/// Offsets this close are one instant: each step recomputes a hook's
/// offset from a clock of `f64` seconds.
const SAME_INSTANT: f64 = 1e-9;

/// The prefetcher every backward pass runs, read once from the config's
/// `prefetch_depth` and `prefetch_group_modules`.
#[derive(Clone, Copy)]
pub(super) enum Prefetcher {
    /// Depth 0: every reload is a demand read.
    Off,
    /// Per tensor: the plan of a profiled pass, else the depth walk.
    PerModule { depth: usize },
    /// The look-ahead over groups of `group` modules, `floor` in flight.
    Groups { group: usize, floor: usize },
}

impl TensorCache {
    /// Prefetches the records of up to `depth` record-holding modules at
    /// or before position `pos` in the forward order, nearest first: the
    /// depth walk of a pass no profile planned. A planned pass walks
    /// nothing.
    pub(super) fn prefetch_before(&self, st: &mut State, mb: usize, pos: usize, depth: usize) {
        if st.passes.get(mb).is_some_and(|p| p.scheduled) {
            return;
        }
        let now = self.io.clock().now();
        let mut taken = 0;
        for p in (0..pos).rev() {
            if taken >= depth {
                break;
            }
            let Some(&seq) = st.passes.get(mb).and_then(|pass| pass.order.get(p)) else {
                continue;
            };
            if st.scopes.get(&seq).is_none_or(|m| m.records.is_empty()) {
                continue;
            }
            st.for_scope_records(seq, |st, id| self.prefetch_record(st, id, now, None));
            taken += 1;
        }
    }

    /// Starts micro-batch `mb`'s backward pass for the per-tensor
    /// prefetcher, once: at the backward announcement, or at the pass's
    /// first `backward_pre` if it was not announced. A step after a
    /// profiling step plans its reloads here ([`TensorCache::plan_reloads`])
    /// and issues the ones already due.
    pub(super) fn start_pass(&self, st: &mut State, mb: usize) {
        let now = self.io.clock().now();
        let stall = st.stats.stall_secs;
        let pass = st.pass(mb);
        if pass.start.is_some() {
            return;
        }
        pass.start = Some((now, stall));
        if st.profiling || st.profile.hooks.is_empty() {
            return;
        }
        self.plan_reloads(st, mb, now);
        self.issue_due(st, mb, 0.0, now);
    }

    /// Plans micro-batch `mb`'s reloads from the last profiling
    /// backward's consumption: each record of the step that the profile
    /// saw is reloaded just in time for its first use.
    ///
    /// The walk runs from the last first use back. Reads serialise on
    /// the read bus, so each gets the latest start at which it lands by
    /// its first use and before the read after it starts; those starts
    /// ascend in first-use order, the earliest-deadline order. A second
    /// walk, forward from the read queue as it stands now, gives each
    /// read its planned landing — never before its store lands — and so
    /// its slack. The plan is the pass's only prefetcher: a record the
    /// profile did not see is not prefetched, and its unpack reloads it
    /// on demand.
    fn plan_reloads(&self, st: &mut State, mb: usize, now: SimTime) {
        let State {
            passes,
            profile,
            scopes,
            records,
            ..
        } = st;
        let pass = &mut passes[mb];
        pass.scheduled = true;
        for (pos, seq) in pass.order.iter().enumerate() {
            let Some(meta) = scopes.get(seq) else {
                continue;
            };
            for (i, id) in meta.records.iter().enumerate() {
                // A deduplicated record is planned where it was saved.
                let Some(rec) = records.get_mut(id).filter(|r| r.at == Some((pos, i))) else {
                    continue;
                };
                let avail = match rec.state {
                    RecState::Staged => now,
                    RecState::Storing { job } => self.io.store_end(job),
                    RecState::Offloaded => rec.avail,
                    _ => continue,
                };
                let Some(&first) = profile.first_use.get(&(pos, i)) else {
                    continue;
                };
                pass.plan.push(JitReload {
                    id: *id,
                    first,
                    dur: self.io.read_secs(self.tiers.link(rec.tier), rec.bytes),
                    avail: avail.since(now),
                    start: 0.0,
                    slack: 0.0,
                });
            }
        }
        let plan = &mut pass.plan;
        plan.sort_unstable_by_key(|r| r.first);
        let mut next_start = f64::INFINITY;
        for r in plan.iter_mut().rev() {
            r.start = profile.hooks[r.first].min(next_start) - r.dur;
            next_start = r.start;
        }
        let mut bus = self.io.reads_drain_at().since(now).max(0.0);
        for r in plan.iter_mut() {
            bus = r.start.max(bus) + r.dur;
            r.slack = profile.hooks[r.first] - bus.max(r.avail);
        }
    }

    /// A backward hook of micro-batch `mb` — `backward_pre`, or an
    /// unpack (of record `unpacked`, if offloaded) — for the per-tensor
    /// prefetcher. A profiling step records the hook's offset (and a
    /// record's first unpack); a planned step issues every reload whose
    /// latest start comes before the next recorded hook, so a reload
    /// whose start has passed goes out at once. Nothing happens before
    /// the pass started.
    pub(super) fn backward_hook(&self, st: &mut State, mb: usize, unpacked: Option<RecordId>) {
        let pass = st.passes.get(mb).filter(|p| st.profiling || p.scheduled);
        let Some((t0, stall0)) = pass.and_then(|p| p.start) else {
            return;
        };
        let now = self.io.clock().now();
        let offset = now.since(t0) - (st.stats.stall_secs - stall0);
        if st.profiling {
            // The profile is micro-batch 0's backward (see `Consumption`).
            if mb != 0 {
                return;
            }
            let at = unpacked.and_then(|id| st.records.get(&id)?.at);
            let profile = &mut st.profile;
            if let Some(at) = at {
                profile.first_use.entry(at).or_insert(profile.hooks.len());
            }
            profile.hooks.push(offset);
            return;
        }
        self.issue_due(st, mb, offset, now);
    }

    /// Issues micro-batch `mb`'s planned reloads whose latest start
    /// comes before the first recorded hook after `offset`.
    fn issue_due(&self, st: &mut State, mb: usize, offset: f64, now: SimTime) {
        let pass = &mut st.passes[mb];
        let hooks = &st.profile.hooks;
        while hooks
            .get(pass.hook)
            .is_some_and(|&h| h <= offset + SAME_INSTANT)
        {
            pass.hook += 1;
        }
        let until = hooks.get(pass.hook).copied().unwrap_or(f64::INFINITY);
        while let Some(r) = st.passes[mb].plan.get(st.passes[mb].next).copied() {
            if r.start >= until {
                break;
            }
            st.passes[mb].next += 1;
            self.prefetch_record(st, r.id, now, Some(r.slack));
        }
    }

    /// Collects prefetch group `gidx` of micro-batch `mb` — the modules
    /// at forward-order positions `[gidx·g, (gidx+1)·g)` for groups of
    /// `g` modules — into `ids`, in the order backward reads
    /// them: last module first, and inside a module the last-packed
    /// record first (prefetches queue FIFO on the read bus, so issue
    /// order is arrival order). Returns the group's bytes and how many of
    /// them a prefetch would reload at `now`, i.e. those that left memory
    /// when their store landed: a record whose store is still in flight
    /// is forwarded instead, which allocates nothing.
    pub(super) fn group_records(
        &self,
        st: &State,
        mb: usize,
        gidx: usize,
        g: usize,
        now: SimTime,
        ids: &mut Vec<RecordId>,
    ) -> (u64, u64) {
        ids.clear();
        let order = st.passes.get(mb).map_or(&[][..], |p| &p.order);
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
    /// until then
    /// [`GpuMemory::resident`](ssdtrain_simhw::GpuMemory::resident)
    /// over-reads by it; the group
    /// prefetcher subtracts `State::unsettled` from every level it
    /// reads. The write queue is one FIFO, so the landed segments are a
    /// prefix of `State::segments` and each is visited once. A segment
    /// already committed or cancelled is passed over without asking its
    /// end: the engine knows none for a cancelled job.
    pub(super) fn note_landed(&self, st: &mut State, now: SimTime) {
        while let Some(seg) = st.segments.get_mut(st.seg_landed) {
            if seg.live {
                if self.io.store_end(seg.job) > now {
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
    pub(super) fn activation_level(&self, st: &mut State, now: SimTime) -> u64 {
        self.note_landed(st, now);
        let booked = self.mem.resident(MemClass::Activation);
        booked.saturating_sub(st.unsettled)
    }

    /// What the look-ahead may still reload under `bound`: the bound
    /// less the activation level and the state bytes read ahead.
    fn headroom(&self, st: &mut State, bound: u64, now: SimTime) -> u64 {
        let level = self.activation_level(st, now) + st.read_ahead_bytes;
        bound.saturating_sub(level)
    }

    /// The group prefetcher: one consumption-ordered look-ahead per
    /// backward pass over groups of `g` modules. `pos` is the forward
    /// position backward is consuming (the last one when the pass is only
    /// announced), and its group the one the walk starts from.
    ///
    /// The walk visits the record-holding groups downward from there and
    /// issues them in the order backward will read them. The first
    /// `floor` in flight are the floor: issued whatever the
    /// memory level, so backward always makes progress. Beyond the floor
    /// the next group is issued only while the bytes it would reload fit
    /// under the level this pass began at (`Lookahead::bound`, read once,
    /// before anything is issued) minus the level now, in-flight reloads
    /// and state read ahead ([`TensorCache::read_ahead_state`]) included.
    /// Look-ahead therefore never lifts activation memory
    /// above where backward started: it spends what backward has handed
    /// back, and starts as soon as the pass is announced instead of when
    /// consumption comes within two positions of a group.
    pub(super) fn look_ahead(&self, st: &mut State, mb: usize, pos: usize, g: usize, floor: usize) {
        let now = self.io.clock().now();
        let cur = pos / g;
        let la = match st.pass(mb).lookahead {
            Some(la) => la,
            None => Lookahead {
                bound: self.activation_level(st, now),
                next: cur + 1,
                cur,
            },
        };
        let cur = cur.min(la.cur);
        // Groups above the consumption point were fully consumed; return
        // their staging slabs. Issue order is descending group order, so
        // they are a prefix.
        let pass = &mut st.passes[mb];
        let done = pass.slabs.partition_point(|(gidx, _)| *gidx > cur);
        for (_, slab) in pass.slabs.drain(..done) {
            self.retire_slab(&st.trace, slab);
        }
        let mut next = la.next.min(cur + 1);
        let mut ids = std::mem::take(&mut st.group_scratch);
        while next > 0 {
            let gidx = next - 1;
            let (bytes, reload) = self.group_records(st, mb, gidx, g, now, &mut ids);
            if !ids.is_empty() {
                let headroom = self.headroom(st, la.bound, now);
                if st.passes[mb].slabs.len() >= floor && reload > headroom {
                    break;
                }
                let slab = self.arena.acquire(bytes);
                if slab.is_some() {
                    st.trace
                        .instant_bytes(TraceCategory::Arena, "arena.acquire", now, bytes);
                }
                st.passes[mb].slabs.push((gidx, slab));
                st.stats.prefetch_groups += 1;
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
                    self.prefetch_record(st, id, now, None);
                }
            }
            next = gidx;
        }
        st.group_scratch = ids;
        st.passes[mb].lookahead = Some(Lookahead { next, cur, ..la });
    }

    /// Scheduler hint (Algorithm 1 line 13): the step is about to switch
    /// to backward propagation — prefetch the tail modules' activations.
    /// The per-tensor prefetcher starts its pass here: a planned pass
    /// issues the reloads already due, an unplanned one walks its depth
    /// back from the last module. In group mode
    /// ([`TensorCacheConfig::prefetch_group_modules`](crate::TensorCacheConfig::prefetch_group_modules))
    /// this announces the backward pass to the group look-ahead: the
    /// level the pass begins at is read here, and the reloads of every
    /// group that fits under it start now. A profiling step's
    /// forward-time totals are taken here, before anything is forwarded.
    pub fn prefetch_last_module(&self) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        self.end_forward(st);
        let mb = st.current_mb;
        let len = st.passes.get(mb).map_or(0, |p| p.order.len());
        match self.prefetcher {
            Prefetcher::PerModule { depth } => {
                self.start_pass(st, mb);
                self.prefetch_before(st, mb, len, depth);
            }
            Prefetcher::Groups { group, floor } if len > 0 => {
                self.look_ahead(st, mb, len - 1, group, floor);
            }
            Prefetcher::Off | Prefetcher::Groups { .. } => {}
        }
    }

    /// Reads an offloaded state slot ahead of its consumer — the
    /// in-backward update, for a parameter whose gradient is not final
    /// yet — under the group look-ahead's headroom. The read is a
    /// [`TensorCache::prefetch_state`]: it queues FIFO behind the reads
    /// already issued, and a demand read overtakes it until it starts.
    /// It is issued only once the current micro-batch's look-ahead has
    /// issued its last group, so it never sits ahead of an activation
    /// reload, and only while the activation level, the state bytes
    /// already read ahead and the slot's own bytes fit under the level
    /// that backward began at; those bytes then spend that headroom until
    /// [`TensorCache::release_state`].
    ///
    /// Returns where the read lands, or `None` — and nothing is issued —
    /// when it does not fit, when the look-ahead still has groups to
    /// issue or is not running (no groups, depth 0, or backward not
    /// announced), or when the slot is not offloaded.
    pub fn read_ahead_state(&self, slot: StateSlot) -> Option<SimTime> {
        let now = self.io.clock().now();
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let la = st.passes.get(st.current_mb)?.lookahead?;
        let bound = la.bound;
        let rec = st.records.get(&slot.0)?;
        if la.next > 0 || !matches!(rec.state, RecState::Offloaded) {
            return None;
        }
        let bytes = rec.bytes;
        let headroom = self.headroom(st, bound, now);
        if bytes > headroom {
            return None;
        }
        if st.trace.is_enabled() {
            let args = vec![
                ("bytes", ArgValue::U64(bytes)),
                ("headroom", ArgValue::U64(headroom)),
            ];
            st.trace
                .instant_with(TraceCategory::Prefetch, "state.read_ahead", now, args);
        }
        let ready = self.reload(st, slot.0, Reload::StatePrefetch)?;
        if let Some(rec) = st.records.get_mut(&slot.0) {
            rec.read_ahead = true;
        }
        st.read_ahead_bytes += bytes;
        Some(ready)
    }

    /// Prefetches one record: forwards bytes still in memory, commits a
    /// finished store, then issues the reload of whatever left memory
    /// (`slack`: see [`Reload::Prefetch`]). With
    /// [`TensorCacheConfig::forwarding`](crate::TensorCacheConfig::forwarding)
    /// off, a store still in flight is left for `unpack`, which waits
    /// for it and reloads; a staged record, which never queued a job, is
    /// handed back either way.
    pub(super) fn prefetch_record(
        &self,
        st: &mut State,
        id: RecordId,
        now: SimTime,
        slack: Option<f64>,
    ) {
        match st.records.get(&id).map(|r| r.state) {
            // Prefetch reached a record whose bytes are still in
            // memory: data forwarding at prefetch time (Section
            // 3.3.2) — the store's completion must never free it.
            Some(RecState::Staged) => self.withdraw(st, id, now, true),
            Some(RecState::Storing { job }) if now < self.io.store_end(job) => {
                if !self.config.forwarding {
                    return;
                }
                self.withdraw(st, id, now, true);
            }
            Some(RecState::Storing { job }) => self.commit_segment(st, job),
            _ => {}
        }
        self.reload(st, id, Reload::Prefetch { slack });
    }
}
