//! The load path: reloads (on demand, prefetched, state), read with
//! retries, `unpack`'s consume, and the stalls they expose.

use super::record::{RecState, Record, RecordId, Reload, State, StateSlot};
use super::TensorCache;
use crate::config::MAX_IO_RETRIES;
use crate::error::OffloadError;
use crate::io::ReadId;
use ssdtrain_simhw::SimTime;
use ssdtrain_tensor::Tensor;
use ssdtrain_trace::{ArgValue, TraceCategory};

impl TensorCache {
    /// Scheduler hint (Algorithm 1 line 15): block until in-flight
    /// reloads complete.
    pub fn wait_io(&self) {
        self.await_loads(&mut self.state.lock());
    }

    /// Waits for the activation reloads in flight. A state slot's read
    /// belongs to the caller that prefetched it, who waits for it.
    pub(super) fn await_loads(&self, st: &mut State) {
        let activations = st.records.values().filter(|r| !r.is_state());
        let loading = activations.filter_map(|r| match r.state {
            RecState::Loading { read, avail } => Some(self.landing(read, avail)),
            _ => None,
        });
        let latest = loading.fold(SimTime::ZERO, SimTime::max);
        self.stall_until(st, latest, "stall.drain");
    }

    /// When a `Loading` record's bytes are resident: its read's end as
    /// the queue stands now, never before the record's store drained.
    pub(super) fn landing(&self, read: ReadId, avail: SimTime) -> SimTime {
        self.io.read_end(read).max(avail)
    }

    /// Reloads an offloaded state slot's bytes back into its tensor as a
    /// demand read — ahead of every prefetch that has not started — and
    /// returns the simulated time the load completes, for a caller that
    /// stalls on it at once (the inline optimizer). The ready time is
    /// clamped to the slot's own store drain, so state is never read
    /// before its store landed. A slot already resident returns `now`,
    /// one whose prefetch is in flight its landing; an unknown slot
    /// returns `None`.
    pub fn load_state(&self, slot: StateSlot) -> Option<SimTime> {
        self.reload_state(slot, Reload::State)
    }

    /// [`TensorCache::load_state`] for a caller that parks its work
    /// until the load lands instead of stalling (the in-backward
    /// update): the read queues FIFO behind the prefetches already
    /// issued, so it never delays a reload backward is about to consume.
    /// A demand read submitted before it starts goes ahead of it, so the
    /// time returned can only move later; calling again while the read
    /// is in flight issues nothing and returns where it lands now.
    pub fn prefetch_state(&self, slot: StateSlot) -> Option<SimTime> {
        self.reload_state(slot, Reload::StatePrefetch)
    }

    fn reload_state(&self, slot: StateSlot, how: Reload) -> Option<SimTime> {
        let now = self.io.clock().now();
        let mut st = self.state.lock();
        if let RecState::Loading { read, avail } = st.records.get(&slot.0)?.state {
            return Some(self.landing(read, avail));
        }
        let ready = self.reload(&mut st, slot.0, how);
        Some(ready.unwrap_or(now))
    }

    /// The simulated time `slot`'s store drains (its earliest legal
    /// read), or `None` for unknown or already-resident slots.
    pub fn state_available_at(&self, slot: StateSlot) -> Option<SimTime> {
        let st = self.state.lock();
        let rec = st.records.get(&slot.0)?;
        matches!(rec.state, RecState::Offloaded).then_some(rec.avail)
    }

    /// Blocks (on the simulated clock) until `t`; whatever compute did not
    /// already cover is exposed I/O latency, accounted in
    /// [`OffloadStats::stall_secs`](crate::OffloadStats::stall_secs)
    /// with a `name` span over it.
    pub(super) fn stall_until(&self, st: &mut State, t: SimTime, name: &'static str) {
        let stall = self.io.clock().advance_to(t);
        st.stats.stall_secs += stall;
        if stall > 0.0 {
            st.trace
                .span(TraceCategory::Stall, name, t.plus_secs(-stall), t);
        }
    }

    /// Submits the reload of an `Offloaded` record — a demand read or a
    /// prefetch, per `how` — and restores its bytes, returning the
    /// simulated time they are resident again, never before the record's
    /// own store drained (a prefetch's can still move later). `None`
    /// when the record is unknown or not offloaded.
    pub(super) fn reload(&self, st: &mut State, id: RecordId, how: Reload) -> Option<SimTime> {
        let rec = st.records.get(&id)?;
        if !matches!(rec.state, RecState::Offloaded) {
            return None;
        }
        let (bytes, class) = (rec.bytes, rec.class);
        if let Reload::Prefetch { slack } = how {
            let now = self.io.clock().now();
            let trace = &st.trace;
            match slack {
                Some(slack) if trace.is_enabled() => {
                    let args = vec![
                        ("bytes", ArgValue::U64(bytes)),
                        ("slack_ns", ArgValue::F64((slack * 1e9).round())),
                    ];
                    trace.instant_with(TraceCategory::Prefetch, "prefetch.issue", now, args);
                }
                _ => trace.instant_bytes(TraceCategory::Prefetch, "prefetch.issue", now, bytes),
            }
        }
        let link = self.tiers.link(rec.tier);
        let read = if how.demand() {
            self.io.submit_demand_load_from(link, bytes)
        } else {
            self.io.submit_load_from(link, bytes)
        };
        let ready = self.landing(read, rec.avail);
        self.read_back(st, id, read);
        let rec = st.records.get_mut(&id)?;
        rec.state = if how.demand() {
            RecState::Resident
        } else {
            RecState::Loading {
                read,
                avail: rec.avail,
            }
        };
        let stats = &mut st.stats;
        match how {
            Reload::Sync => stats.sync_loads += 1,
            Reload::Prefetch { .. } => stats.prefetches += 1,
            Reload::State | Reload::StatePrefetch => {}
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
    /// boundary under *every* policy. The bytes are decoded where the
    /// device lends them ([`crate::OffloadTarget::read_with`]), with
    /// `State::staging` as the buffer a device that copies reads into,
    /// and into a spare buffer of the record's element count from
    /// `State::spare_values` — normally the one the record's own commit
    /// released — so a reload allocates only when no spare fits.
    ///
    /// The restore is stamped on the memory timeline where `read` lands,
    /// and tied to it ([`crate::IoEngine::track_landing`]) so it moves if
    /// a demand read pushes the read back.
    pub(super) fn read_back(&self, st: &mut State, id: RecordId, read: ReadId) {
        let State {
            records,
            stats,
            pending_error: pending,
            trace,
            staging,
            spare_values,
            ledger,
            ..
        } = st;
        let Some(rec) = records.get(&id) else {
            return;
        };
        let (tensor, bytes) = (&rec.tensor, rec.bytes);
        let numel = tensor.storage().numel();
        let fits = spare_values.iter().rposition(|v| v.len() == numel);
        let mut spare = fits
            .map(|i| spare_values.swap_remove(i))
            .unwrap_or_default();
        // `None` after a successful read: a symbolic entry.
        let mut values = None;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let mut decode = |data: Option<&[u8]>| {
                let into = std::mem::take(&mut spare);
                values = data.map(|raw| tensor.storage().decode_into(raw, into));
            };
            let got = ledger.read(&self.tiers, rec.tier, &rec.key, bytes, staging, &mut decode);
            match got {
                Ok(()) => break,
                Err(err) if attempts > MAX_IO_RETRIES => {
                    stats.load_retries += u64::from(attempts - 1);
                    if pending.is_none() {
                        *pending = Some(OffloadError::Load {
                            key: rec.key.clone(),
                            bytes,
                            target: self.tiers.name(rec.tier).to_owned(),
                            attempts,
                            source: err,
                        });
                    }
                    if trace.is_enabled() {
                        trace.instant_with(
                            TraceCategory::Recovery,
                            "recovery.load_failed",
                            self.landing(read, rec.avail),
                            vec![
                                ("bytes", ArgValue::U64(bytes)),
                                ("attempts", ArgValue::U64(u64::from(attempts))),
                            ],
                        );
                    }
                    self.restore_at_landing(rec, read, || {
                        tensor.storage().restore_numeric(vec![0.0; numel]);
                    });
                    return;
                }
                Err(_) => {}
            }
        }
        if attempts > 1 {
            stats.load_retries += u64::from(attempts - 1);
        }
        if attempts > 1 && trace.is_enabled() {
            trace.instant_with(
                TraceCategory::Recovery,
                "recovery.load_retry",
                self.landing(read, rec.avail),
                vec![
                    ("bytes", ArgValue::U64(bytes)),
                    ("retries", ArgValue::U64(u64::from(attempts - 1))),
                ],
            );
        }
        self.restore_at_landing(rec, read, || match values {
            Some(decoded) => tensor.storage().restore_numeric(decoded),
            None => tensor.storage().restore_symbolic(),
        });
    }

    /// Runs `f`, the restore of `rec`'s bytes, with its memory events
    /// stamped where `read` lands, and ties them to the read so they
    /// move if it is pushed back.
    fn restore_at_landing(&self, rec: &Record, read: ReadId, f: impl FnOnce()) {
        let ready = self.landing(read, rec.avail);
        let ((), events) = self.mem.with_time_logged(ready, f);
        self.io.track_landing(read, events, rec.avail);
    }

    /// Resolves a record id back to its tensor (Algorithm 2's `unpack`),
    /// *forwarding* bytes that are still in memory and blocking — a
    /// simulated-clock stall — on a reload that has not arrived. `None`
    /// for an id the cache does not hold.
    pub(super) fn consume(&self, st: &mut State, id: RecordId) -> Option<Tensor> {
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
            RecState::Loading { read, avail } => ready = Some(self.landing(read, avail)),
        }
        let rec = st.records.get_mut(&id)?;
        rec.state = RecState::Resident;
        let tensor = rec.tensor.clone();
        if let Some(at) = ready {
            self.stall_until(st, at, "stall.load");
        }
        Some(tensor)
    }
}
