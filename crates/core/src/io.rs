//! Store/load job engine — the paper's two I/O thread pools
//! (Section 3.3.2).
//!
//! Timing is modelled on the simulated clock. Every offload transfer
//! crosses *one* PCIe link between the GPU and the host, whatever tier
//! it lands on or comes back from, and that link is full duplex: the
//! engine keeps one queue per direction, every tier link's jobs share
//! it, and a job moves at `min(link bps, bus bps)` for its direction.
//! Each job remembers the tier link it uses, so per-link drain times,
//! busy seconds and byte counts are filters over the queues. Reads and
//! writes never wait for each other.
//!
//! The store queue is one FIFO: a job submitted at `t` starts when the
//! previous live job finished. Queued (not yet started) store jobs can
//! be *cancelled* when their tensor was forwarded (adaptive offloading
//! feature 1), which pulls the jobs behind them forward.
//!
//! The read queue is ordered by who is waiting. A *prefetch*
//! ([`IoEngine::submit_load_from`]) joins the tail. A *demand* read
//! ([`IoEngine::submit_demand_load_from`]) is one the clock stalls on
//! at once: it goes behind the reads already in flight and the earlier
//! demand reads, and ahead of every prefetch that has not started, which
//! it pushes back by its own duration. So a prefetch's landing can only
//! move later; [`IoEngine::read_end`] reports where it is now, and its
//! trace spans and the memory events stamped at its landing move with
//! it. Every job keeps the price it was submitted at: a throttle slows
//! the reads submitted after it, not those already queued.
//!
//! [`IoEngine::tiered_with_bus`] builds the engine over any number of
//! links; [`IoEngine::new`] is the one-link shape, whose bus is its own
//! link.

use parking_lot::Mutex;
use ssdtrain_simhw::{GpuMemory, SimClock, SimTime};
use ssdtrain_trace::{TraceCategory, TraceSink};
use std::ops::Range;
use std::sync::Arc;

/// Handle to a submitted store job. Ids ascend in submission order
/// until the engine's per-step reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(usize);

/// Handle to a submitted read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadId(usize);

/// The simulated write/read bandwidths of one tier's link.
#[derive(Debug, Clone, PartialEq)]
pub struct TierLink {
    /// Link name; its reads are traced as `"xfer.<name>-read"`.
    pub name: String,
    /// Store-direction bandwidth, bytes/s.
    pub(crate) write_bps: f64,
    /// Load-direction bandwidth, bytes/s.
    pub(crate) read_bps: f64,
}

impl TierLink {
    /// A full-duplex link with the given per-direction bandwidths.
    pub fn new(name: impl Into<String>, write_bps: f64, read_bps: f64) -> TierLink {
        TierLink {
            name: name.into(),
            write_bps,
            read_bps,
        }
    }
}

#[derive(Debug, Clone)]
struct WriteJob {
    /// The tier link the job targets.
    link: usize,
    bytes: u64,
    submit: SimTime,
    start: SimTime,
    end: SimTime,
    // Transfer duration at the bandwidth in effect when the job was
    // (re)priced; rescheduling reuses it so cancellations never re-price
    // history.
    dur_secs: f64,
    cancelled: bool,
}

/// Memory events a caller stamped at a read's landing, which it
/// clamped to `floor`: they sit at `max(read end, floor)`.
#[derive(Debug, Clone)]
struct Landing {
    events: Range<usize>,
    floor: SimTime,
}

#[derive(Debug, Clone)]
struct ReadJob {
    /// The tier link the read comes from.
    link: usize,
    bytes: u64,
    submit: SimTime,
    start: SimTime,
    end: SimTime,
    /// Transfer duration at the slowdown in effect at submit.
    dur_secs: f64,
    /// A demand read; otherwise a prefetch.
    demand: bool,
    /// Trace-log indices of the read's `xfer.<link>-read` and `load`
    /// spans, retimed when the read moves.
    spans: [Option<usize>; 2],
    /// What the cache stamped at the landing: the restore of the bytes
    /// and, if the record is released before it lands, the release.
    landings: [Option<Landing>; 2],
}

/// One tier link's fixed parts.
struct Link {
    name: String,
    /// The name of the link's read spans: `"xfer.<name>-read"`.
    xfer_read: String,
    write_bps: f64,
    read_bps: f64,
}

/// Everything the engine mutates, behind its one lock.
struct EngineState {
    /// Every store of the step in submission order — the one FIFO all
    /// links' jobs serialise through.
    jobs: Vec<WriteJob>,
    /// Every read of the step in submission order; a [`ReadId`] indexes
    /// it.
    reads: Vec<ReadJob>,
    /// `reads` indices in service order: the one read queue.
    read_order: Vec<usize>,
    /// Product of the injected slowdown factors; prices future jobs.
    slowdown: f64,
    /// Fixed seconds added to every store job's duration at submit time
    /// (driver ioctl + DMA descriptor setup). Rescheduling reuses
    /// `dur_secs`, so the overhead sticks to a job for life.
    store_overhead: f64,
    trace: TraceSink,
    /// The memory log landings are stamped in.
    memory: Option<Arc<GpuMemory>>,
}

impl EngineState {
    /// When the last live job before index `idx` finishes.
    fn end_before(&self, idx: usize) -> SimTime {
        let mut earlier = self.jobs[..idx].iter().rev();
        earlier
            .find(|j| !j.cancelled)
            .map_or(SimTime::ZERO, |j| j.end)
    }

    /// Reschedules the live jobs from index `from` on: each starts when
    /// the one before it ends, or at its own submit time if that is
    /// later. Jobs before `from` must already be scheduled.
    fn reschedule(&mut self, from: usize) {
        let mut prev_end = self.end_before(from);
        for j in self.jobs[from..].iter_mut().filter(|j| !j.cancelled) {
            j.start = j.submit.max(prev_end);
            j.end = j.start.plus_secs(j.dur_secs);
            prev_end = j.end;
        }
    }

    fn live_jobs(&self, link: usize) -> impl Iterator<Item = &WriteJob> {
        let jobs = self.jobs.iter();
        jobs.filter(move |j| j.link == link && !j.cancelled)
    }

    /// When the read at queue position `pos - 1` finishes
    /// ([`SimTime::ZERO`] at the head).
    fn read_end_before(&self, pos: usize) -> SimTime {
        let prev = pos.checked_sub(1).and_then(|p| self.read_order.get(p));
        prev.map_or(SimTime::ZERO, |&id| self.reads[id].end)
    }

    /// Reschedules the reads from queue position `from` on, the same
    /// rule as the store queue's, and moves every trace span and memory
    /// event of a read that moved to its new interval.
    fn reschedule_reads(&mut self, from: usize) {
        let mut prev_end = self.read_end_before(from);
        let EngineState {
            reads,
            read_order,
            trace,
            memory,
            ..
        } = self;
        for &id in &read_order[from..] {
            let j = &mut reads[id];
            let (was_start, was_end) = (j.start, j.end);
            j.start = j.submit.max(prev_end);
            j.end = j.start.plus_secs(j.dur_secs);
            prev_end = j.end;
            // A read that did not move leaves the rest where they were.
            if j.start == was_start {
                break;
            }
            for &index in j.spans.iter().flatten() {
                trace.retime_span(index, was_start, j.start, j.end);
            }
            let Some(mem) = memory.as_deref() else {
                continue;
            };
            for l in j.landings.iter().flatten() {
                mem.restamp(l.events.clone(), was_end.max(l.floor), j.end.max(l.floor));
            }
        }
    }
}

/// The simulated store/load engine shared by a tensor cache.
///
/// ```
/// use ssdtrain::IoEngine;
/// use ssdtrain_simhw::SimClock;
/// let io = IoEngine::new(SimClock::new(), 1e9, 2e9);
/// let job = io.submit_store(500_000_000); // 0.5 s at 1 GB/s
/// assert_eq!(io.store_end(job).as_secs(), 0.5);
/// let read = io.submit_load_from(0, 1_000_000_000); // full duplex
/// assert_eq!(io.read_end(read).as_secs(), 0.5);
/// ```
///
/// With several tiers ([`IoEngine::tiered_with_bus`], what a
/// [`TrainSession`](../ssdtrain_train/index.html) builds) every tier
/// sits behind the same GPU PCIe link, so stores serialise FIFO across
/// links and the second store waits for the first; reads share the
/// other direction the same way, and a demand read overtakes the
/// prefetches that have not started:
///
/// ```
/// use ssdtrain::{IoEngine, TierLink};
/// use ssdtrain_simhw::SimClock;
/// let clock = SimClock::new();
/// let io = IoEngine::tiered_with_bus(
///     clock.clone(),
///     vec![TierLink::new("dram", 2e9, 2e9), TierLink::new("ssd", 1e9, 1e9)],
///     2e9, // one PCIe bus shared by both tiers, each direction
/// );
/// let a = io.submit_store_to(0, 2_000_000_000); // 0..1 s, dram at bus rate
/// let b = io.submit_store_to(1, 1_000_000_000); // bus busy until 1 s
/// assert_eq!(io.store_end(a).as_secs(), 1.0);
/// assert_eq!(io.store_end(b).as_secs(), 2.0); // cross-tier queueing
///
/// let first = io.submit_load_from(0, 2_000_000_000); // 0..1 s
/// let ahead = io.submit_load_from(1, 1_000_000_000); // queued for 1..2 s
/// clock.advance_by(0.5); // `first` is in flight
/// let needed = io.submit_demand_load_from(0, 2_000_000_000);
/// assert_eq!(io.read_end(first).as_secs(), 1.0);
/// assert_eq!(io.read_end(needed).as_secs(), 2.0); // overtook `ahead`
/// assert_eq!(io.read_end(ahead).as_secs(), 3.0);
/// ```
#[derive(Clone)]
pub struct IoEngine {
    clock: SimClock,
    links: Arc<Vec<Link>>,
    /// Bandwidth of the write bus every store crosses, bytes/s.
    bus_write_bps: f64,
    /// Bandwidth of the read bus every load crosses, bytes/s.
    bus_read_bps: f64,
    /// The engine's one lock; clones share it. Nothing is called with
    /// it held except the trace sink and the memory log (layer order:
    /// io → {clock, trace, mem}).
    state: Arc<Mutex<EngineState>>,
}

impl IoEngine {
    /// Creates a single-link engine over one offload target's
    /// write/read bandwidths; the link is its own bus in each direction.
    ///
    /// # Panics
    /// Panics if a bandwidth is not positive.
    pub fn new(clock: SimClock, write_bps: f64, read_bps: f64) -> IoEngine {
        let link = TierLink::new("offload", write_bps, read_bps);
        IoEngine::with_buses(clock, vec![link], write_bps, read_bps)
    }

    /// Creates an engine whose jobs all cross one PCIe bus of `bus_bps`
    /// bytes/s per direction, whatever link they use — the single-link
    /// reality of the paper's testbed. Stores serialise FIFO on the
    /// write side; reads serialise on the read side, demand reads ahead
    /// of the prefetches that have not started. A job transfers at
    /// `min(link bps, bus bps)` for its direction (after any slowdown).
    ///
    /// # Panics
    /// Panics if `links` is empty or any bandwidth (including the bus)
    /// is not positive — construction-time configuration bugs.
    pub fn tiered_with_bus(clock: SimClock, links: Vec<TierLink>, bus_bps: f64) -> IoEngine {
        IoEngine::with_buses(clock, links, bus_bps, bus_bps)
    }

    fn with_buses(
        clock: SimClock,
        links: Vec<TierLink>,
        write_bus: f64,
        read_bus: f64,
    ) -> IoEngine {
        assert!(
            write_bus > 0.0 && read_bus > 0.0,
            "bus bandwidth must be positive"
        );
        assert!(!links.is_empty(), "an IoEngine needs at least one link");
        let links: Vec<Link> = links
            .into_iter()
            .map(|l| {
                assert!(
                    l.write_bps > 0.0 && l.read_bps > 0.0,
                    "bandwidth must be positive"
                );
                Link {
                    xfer_read: format!("xfer.{}-read", l.name),
                    name: l.name,
                    write_bps: l.write_bps,
                    read_bps: l.read_bps,
                }
            })
            .collect();
        let state = EngineState {
            jobs: Vec::new(),
            reads: Vec::new(),
            read_order: Vec::new(),
            slowdown: 1.0,
            store_overhead: 0.0,
            trace: TraceSink::disabled(),
            memory: None,
        };
        IoEngine {
            clock,
            links: Arc::new(links),
            bus_write_bps: write_bus,
            bus_read_bps: read_bus,
            state: Arc::new(Mutex::new(state)),
        }
    }

    /// Sets the fixed per-store-job submission overhead in seconds
    /// (negative values clamp to zero). Applies to stores submitted from
    /// now on; already-queued jobs keep their pricing.
    pub fn set_store_job_overhead(&self, secs: f64) {
        self.state.lock().store_overhead = secs.max(0.0);
    }

    /// The configured per-store-job submission overhead, seconds.
    pub(crate) fn store_job_overhead_secs(&self) -> f64 {
        self.state.lock().store_overhead
    }

    /// Routes this engine's events into `sink`: each read as a `load`
    /// span (category `load`) and an `xfer.<link>-read` span (category
    /// `link`), both carrying the read's bytes and retimed in place when
    /// a demand read moves the read. Clones of this engine share the
    /// sink.
    pub fn set_trace(&self, sink: TraceSink) {
        self.state.lock().trace = sink;
    }

    /// Attaches the memory log that [`IoEngine::track_landing`] stamps
    /// refer to. Clones of this engine share it.
    pub(crate) fn set_memory(&self, memory: Arc<GpuMemory>) {
        self.state.lock().memory = Some(memory);
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Number of tier links.
    pub(crate) fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Configured write bandwidth of one link, bytes/s.
    pub fn write_bps_of(&self, link: usize) -> f64 {
        self.links.get(link).map(|l| l.write_bps).unwrap_or(0.0)
    }

    /// Configured read bandwidth of one link, bytes/s.
    pub(crate) fn read_bps_of(&self, link: usize) -> f64 {
        self.links.get(link).map(|l| l.read_bps).unwrap_or(0.0)
    }

    /// Degrades both directions of *every* link by `factor` from the
    /// current simulated time: queued writes stretch fully, a write in
    /// flight stretches only its remaining portion, finished writes keep
    /// their history (FIFO order preserved), and reads submitted from
    /// now on take `factor` times longer (queued reads keep their
    /// price). Factors compose multiplicatively and persist across the
    /// engine's per-step reset — injected hardware degradation does not
    /// heal between steps.
    ///
    /// # Panics
    /// Panics if `factor` is not positive.
    pub fn throttle(&self, factor: f64) {
        assert!(factor > 0.0, "slowdown factor must be positive");
        let now = self.clock.now();
        let mut st = self.state.lock();
        st.slowdown *= factor;
        for j in st.jobs.iter_mut().filter(|j| !j.cancelled) {
            if j.end <= now {
                continue;
            }
            if j.start >= now {
                j.dur_secs *= factor;
            } else {
                let done = now.as_secs() - j.start.as_secs();
                let remaining = j.end.as_secs() - now.as_secs();
                j.dur_secs = done + remaining * factor;
            }
        }
        st.reschedule(0);
    }

    /// Submits a store of `bytes` on link 0 at the current time.
    pub fn submit_store(&self, bytes: u64) -> JobId {
        self.submit_store_to(0, bytes)
    }

    /// Submits a store of `bytes` on the tier link `link` at the
    /// current time; returns its id. The job joins the tail of the
    /// queue, so no earlier job moves. An out-of-range link is clamped
    /// to the last one (a misrouted job still makes progress; tier
    /// wiring bugs surface in tests, not as a training crash).
    pub fn submit_store_to(&self, link: usize, bytes: u64) -> JobId {
        let link = link.min(self.links.len() - 1);
        let bps = self.links[link].write_bps.min(self.bus_write_bps);
        let now = self.clock.now();
        let mut st = self.state.lock();
        let start = now.max(st.end_before(st.jobs.len()));
        let dur_secs = st.store_overhead + bytes as f64 * st.slowdown / bps;
        st.jobs.push(WriteJob {
            link,
            bytes,
            submit: now,
            start,
            end: start.plus_secs(dur_secs),
            dur_secs,
            cancelled: false,
        });
        JobId(st.jobs.len() - 1)
    }

    /// Current scheduled completion time of a store (may move earlier if
    /// queued jobs ahead of it are cancelled).
    ///
    /// # Panics
    /// Panics on an unknown or cancelled job.
    pub fn store_end(&self, job: JobId) -> SimTime {
        self.store_span(job).1
    }

    /// Current scheduled `(start, end)` interval of a store — the span a
    /// trace records when the store commits.
    ///
    /// # Panics
    /// Panics on an unknown or cancelled job.
    pub fn store_span(&self, job: JobId) -> (SimTime, SimTime) {
        let st = self.state.lock();
        let j = &st.jobs[job.0];
        assert!(!j.cancelled, "store_span of a cancelled job");
        (j.start, j.end)
    }

    /// Cancels a store if it has not started by `now`; returns `true` on
    /// success (the adaptive-offloading check a store worker performs
    /// before writing a forwarded tensor). Only the jobs queued behind
    /// it can move, so only they are rescheduled.
    pub fn try_cancel_store(&self, job: JobId, now: SimTime) -> bool {
        let mut st = self.state.lock();
        let j = &mut st.jobs[job.0];
        if j.cancelled || j.start <= now {
            return false;
        }
        j.cancelled = true;
        st.reschedule(job.0);
        true
    }

    /// Submits a prefetch of `bytes` from the tier link `link` at the
    /// current time: it joins the tail of the read queue. A demand read
    /// submitted before it starts goes ahead of it, so
    /// [`IoEngine::read_end`] can only move later. An out-of-range link
    /// is clamped to the last one.
    pub fn submit_load_from(&self, link: usize, bytes: u64) -> ReadId {
        self.submit_read(link, bytes, false)
    }

    /// Submits a demand read of `bytes` from the tier link `link` at the
    /// current time — one the caller stalls on at once. It queues behind
    /// every read that has started and every earlier demand read, ahead
    /// of every prefetch that has not started (those are pushed back by
    /// its duration), and nothing submitted later can overtake it. An
    /// out-of-range link is clamped to the last one.
    pub fn submit_demand_load_from(&self, link: usize, bytes: u64) -> ReadId {
        self.submit_read(link, bytes, true)
    }

    /// Seconds a read of `bytes` from the tier link `link` submitted now
    /// would take on the read bus: `bytes × slowdown ÷ min(link, bus)`.
    /// An out-of-range link is clamped to the last one.
    pub(crate) fn read_secs(&self, link: usize, bytes: u64) -> f64 {
        self.read_price(&self.state.lock(), link, bytes)
    }

    fn read_price(&self, st: &EngineState, link: usize, bytes: u64) -> f64 {
        let l = &self.links[link.min(self.links.len() - 1)];
        bytes as f64 * st.slowdown / l.read_bps.min(self.bus_read_bps)
    }

    /// When the last read queued on the read bus finishes
    /// ([`SimTime::ZERO`] when none is queued).
    pub(crate) fn reads_drain_at(&self) -> SimTime {
        let st = self.state.lock();
        st.read_end_before(st.read_order.len())
    }

    fn submit_read(&self, link: usize, bytes: u64, demand: bool) -> ReadId {
        let link = link.min(self.links.len() - 1);
        let l = &self.links[link];
        let now = self.clock.now();
        let mut guard = self.state.lock();
        let st = &mut *guard;
        // A prefetch queues at the tail; a demand read ahead of the
        // prefetches that have not started, which sit at the tail (a
        // demand read placed earlier sits ahead of them).
        let mut pos = st.read_order.len();
        while demand && pos > 0 {
            let j = &st.reads[st.read_order[pos - 1]];
            if j.demand || j.start < now {
                break;
            }
            pos -= 1;
        }
        let start = now.max(st.read_end_before(pos));
        let dur_secs = self.read_price(st, link, bytes);
        let end = start.plus_secs(dur_secs);
        let xfer = st
            .trace
            .span_bytes(TraceCategory::Link, &l.xfer_read, start, end, bytes);
        let load = st
            .trace
            .span_bytes(TraceCategory::Load, "load", start, end, bytes);
        let id = st.reads.len();
        st.reads.push(ReadJob {
            link,
            bytes,
            submit: now,
            start,
            end,
            dur_secs,
            demand,
            spans: [xfer, load],
            landings: [None, None],
        });
        st.read_order.insert(pos, id);
        st.reschedule_reads(pos + 1);
        ReadId(id)
    }

    /// When a read's bytes are in GPU memory, as the queue stands now.
    ///
    /// # Panics
    /// Panics on an unknown read.
    pub fn read_end(&self, read: ReadId) -> SimTime {
        self.state.lock().reads[read.0].end
    }

    /// A read's current `(start, end)` interval on the read bus.
    ///
    /// # Panics
    /// Panics on an unknown read.
    pub fn read_span(&self, read: ReadId) -> (SimTime, SimTime) {
        let st = self.state.lock();
        let j = &st.reads[read.0];
        (j.start, j.end)
    }

    /// Ties memory events to a read's landing: `events` are log
    /// positions in the [attached](IoEngine::set_memory) memory log,
    /// stamped at `max(read end, floor)`. If a demand read pushes the
    /// read back, they are restamped at its new end. A read carries at
    /// most two such stamps (its bytes' restore and, if the record goes
    /// before the read lands, its release); further ones are ignored.
    pub(crate) fn track_landing(&self, read: ReadId, events: Range<usize>, floor: SimTime) {
        let mut st = self.state.lock();
        let Some(j) = st.reads.get_mut(read.0) else {
            return;
        };
        if let Some(slot) = j.landings.iter_mut().find(|l| l.is_none()) {
            *slot = Some(Landing { events, floor });
        }
    }

    /// When the last scheduled write finishes ([`SimTime::ZERO`] when
    /// the queue is empty).
    pub fn writes_drain_at(&self) -> SimTime {
        let st = self.state.lock();
        st.end_before(st.jobs.len())
    }

    /// When the last scheduled write to one tier link finishes
    /// ([`SimTime::ZERO`] when it has none or is out of range).
    pub(crate) fn writes_drain_at_on(&self, link: usize) -> SimTime {
        let st = self.state.lock();
        let ends = st.live_jobs(link).map(|j| j.end);
        ends.fold(SimTime::ZERO, SimTime::max)
    }

    /// The name of one tier link (empty when out of range).
    pub(crate) fn link_name(&self, link: usize) -> &str {
        self.links.get(link).map(|l| l.name.as_str()).unwrap_or("")
    }

    /// Bandwidth of the write bus every store crosses, bytes/s.
    pub(crate) fn bus_write_bps(&self) -> f64 {
        self.bus_write_bps
    }

    /// Bandwidth of the read bus every load crosses, bytes/s.
    pub(crate) fn bus_read_bps(&self) -> f64 {
        self.bus_read_bps
    }

    /// Total bytes actually written across every link (cancelled jobs
    /// excluded).
    pub fn bytes_written(&self) -> u64 {
        let st = self.state.lock();
        let live = st.jobs.iter().filter(|j| !j.cancelled);
        live.map(|j| j.bytes).sum()
    }

    /// Total bytes read back across every link.
    pub fn bytes_read(&self) -> u64 {
        self.state.lock().reads.iter().map(|j| j.bytes).sum()
    }

    /// Seconds the write bus was busy: the per-link sums added in link
    /// order (the order the step profile's total has always rounded in).
    pub fn write_busy_secs(&self) -> f64 {
        (0..self.links.len())
            .map(|l| self.write_busy_secs_on(l))
            .sum()
    }

    /// Seconds of this step's writes that targeted one tier link
    /// (cancelled jobs excluded).
    pub(crate) fn write_busy_secs_on(&self, link: usize) -> f64 {
        self.state.lock().live_jobs(link).map(|j| j.dur_secs).sum()
    }

    /// Seconds of this step's reads that came from one tier link.
    pub fn read_busy_secs_on(&self, link: usize) -> f64 {
        let st = self.state.lock();
        let reads = st.reads.iter().filter(|j| j.link == link);
        reads.fold(0.0, |busy, j| busy + (j.end.as_secs() - j.start.as_secs()))
    }

    /// Clears all job state on every link (new measured step). An
    /// injected slowdown persists; see [`IoEngine::throttle`].
    pub(crate) fn reset(&self) {
        let mut st = self.state.lock();
        st.jobs.clear();
        st.reads.clear();
        st.read_order.clear();
    }
}

impl std::fmt::Debug for IoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoEngine")
            .field("links", &self.links.len())
            .field("bus_write_gbps", &(self.bus_write_bps / 1e9))
            .field("bus_read_gbps", &(self.bus_read_bps / 1e9))
            .field("bytes_written", &self.bytes_written())
            .field("bytes_read", &self.bytes_read())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> (SimClock, IoEngine) {
        let clock = SimClock::new();
        let io = IoEngine::new(clock.clone(), 1e9, 2e9);
        (clock, io)
    }

    /// A read's `(start, end)` in seconds.
    fn span(io: &IoEngine, read: ReadId) -> (f64, f64) {
        let (start, end) = io.read_span(read);
        (start.as_secs(), end.as_secs())
    }

    #[test]
    fn stores_run_fifo() {
        let (_c, io) = engine();
        let a = io.submit_store(1_000_000_000); // 1 s
        let b = io.submit_store(500_000_000); // queued behind
        assert_eq!(io.store_end(a).as_secs(), 1.0);
        assert_eq!(io.store_end(b).as_secs(), 1.5);
    }

    #[test]
    fn cancelling_a_queued_store_reflows_the_queue() {
        let (_c, io) = engine();
        let _a = io.submit_store(1_000_000_000);
        let b = io.submit_store(1_000_000_000);
        let c = io.submit_store(1_000_000_000);
        assert_eq!(io.store_end(c).as_secs(), 3.0);
        // b has not started at t=0.5.
        assert!(io.try_cancel_store(b, SimTime::from_secs(0.5)));
        assert_eq!(io.store_end(c).as_secs(), 2.0);
        assert_eq!(io.bytes_written(), 2_000_000_000);
    }

    #[test]
    fn started_stores_cannot_be_cancelled() {
        let (_c, io) = engine();
        let a = io.submit_store(1_000_000_000);
        assert!(!io.try_cancel_store(a, SimTime::from_secs(0.1)));
        assert_eq!(io.bytes_written(), 1_000_000_000);
    }

    #[test]
    fn loads_use_the_read_channel() {
        let (clock, io) = engine();
        clock.advance_by(1.0);
        let ready = io.submit_load_from(0, 2_000_000_000); // 1 s at 2 GB/s
        assert_eq!(io.read_end(ready).as_secs(), 2.0);
        assert_eq!(io.bytes_read(), 2_000_000_000);
    }

    #[test]
    fn writes_overlap_reads_full_duplex() {
        let (_c, io) = engine();
        io.submit_store(1_000_000_000);
        let ready = io.submit_load_from(0, 2_000_000_000);
        // Read finishes at 1 s even though a write occupies 0..1 s.
        assert_eq!(io.read_end(ready).as_secs(), 1.0);
    }

    #[test]
    fn drain_time_tracks_last_live_job() {
        let (_c, io) = engine();
        let _a = io.submit_store(1_000_000_000);
        let b = io.submit_store(1_000_000_000);
        assert_eq!(io.writes_drain_at().as_secs(), 2.0);
        io.try_cancel_store(b, SimTime::ZERO);
        assert_eq!(io.writes_drain_at().as_secs(), 1.0);
    }

    #[test]
    fn throttle_stretches_queued_and_inflight_writes() {
        let (clock, io) = engine();
        let a = io.submit_store(1_000_000_000); // scheduled 0..1 s
        let b = io.submit_store(1_000_000_000); // scheduled 1..2 s
        clock.advance_by(0.5);
        io.throttle(2.0);
        // a: 0.5 s done + 0.5 s remaining at half speed = ends at 1.5 s.
        assert_eq!(io.store_end(a).as_secs(), 1.5);
        // b: not started, takes 2 s, queued behind a.
        assert_eq!(io.store_end(b).as_secs(), 3.5);
        // Future reads also slow: 2 GB at an effective 1 GB/s.
        let ready = io.submit_load_from(0, 2_000_000_000);
        assert_eq!(io.read_end(ready).as_secs(), 2.5);
    }

    #[test]
    fn throttle_leaves_queued_reads_at_their_price() {
        let (clock, io) = engine();
        let a = io.submit_load_from(0, 2_000_000_000); // 0..1 s
        let b = io.submit_load_from(0, 2_000_000_000); // 1..2 s
        clock.advance_by(0.5);
        io.throttle(2.0);
        assert_eq!((span(&io, a), span(&io, b)), ((0.0, 1.0), (1.0, 2.0)));
        let c = io.submit_load_from(0, 2_000_000_000); // 2 s at 1 GB/s
        assert_eq!(span(&io, c), (2.0, 4.0));
    }

    #[test]
    fn cancellation_after_throttle_keeps_fifo_and_pricing() {
        let (clock, io) = engine();
        let _a = io.submit_store(1_000_000_000);
        let b = io.submit_store(1_000_000_000);
        let c = io.submit_store(1_000_000_000);
        clock.advance_by(0.5);
        io.throttle(2.0);
        assert_eq!(io.store_end(c).as_secs(), 5.5);
        // Cancelling b pulls c forward without re-pricing a's history.
        assert!(io.try_cancel_store(b, clock.now()));
        assert_eq!(io.store_end(c).as_secs(), 3.5);
        let busy = io.write_busy_secs();
        assert!((busy - 3.5).abs() < 1e-9, "busy {busy}");
    }

    #[test]
    fn idle_write_queue_starts_at_submit_time() {
        let (clock, io) = engine();
        clock.advance_by(3.0);
        let a = io.submit_store(1_000_000_000);
        assert_eq!(io.store_end(a).as_secs(), 4.0);
    }

    fn bus_engine() -> (SimClock, IoEngine) {
        let clock = SimClock::new();
        let io = IoEngine::tiered_with_bus(
            clock.clone(),
            vec![
                TierLink::new("dram", 2e9, 2e9),
                TierLink::new("ssd", 1e9, 1e9),
            ],
            2e9,
        );
        (clock, io)
    }

    #[test]
    fn tier_loads_price_on_their_own_link() {
        // Each read moves at its own link's rate, capped by the bus, and
        // the two links' reads share the one read bus.
        let (_c, io) = bus_engine();
        let dram = io.submit_load_from(0, 2_000_000_000); // 1 s at 2 GB/s
        let ssd = io.submit_load_from(1, 2_000_000_000); // 2 s at 1 GB/s, behind
        assert_eq!(span(&io, dram), (0.0, 1.0));
        assert_eq!(span(&io, ssd), (1.0, 3.0));
        assert_eq!(io.read_busy_secs_on(0), 1.0);
        assert_eq!(io.read_busy_secs_on(1), 2.0);
        assert_eq!(io.bytes_read(), 4_000_000_000);
        assert_eq!(io.bus_read_bps(), 2e9);
    }

    #[test]
    fn aggregates_sum_over_links() {
        let (_c, io) = bus_engine();
        assert_eq!(io.link_count(), 2);
        assert_eq!((io.write_bps_of(0), io.write_bps_of(1)), (2e9, 1e9));
        assert_eq!((io.read_bps_of(0), io.read_bps_of(1)), (2e9, 1e9));
        io.submit_store_to(0, 2_000_000_000);
        io.submit_store_to(1, 1_000_000_000);
        assert_eq!(io.write_busy_secs(), 2.0);
        io.reset();
        assert_eq!(io.bytes_written(), 0);
    }

    #[test]
    fn throttle_degrades_every_link() {
        let (_c, io) = bus_engine();
        io.throttle(2.0);
        let a = io.submit_store_to(1, 1_000_000_000); // 2 s at slowed 0.5 GB/s
        assert_eq!(io.store_end(a).as_secs(), 2.0);
        let b = io.submit_store_to(0, 2_000_000_000); // 2 s at slowed 1 GB/s
        assert_eq!(io.store_end(b).as_secs(), 4.0);
        // The reads share their bus too: 2 s each, one behind the other.
        let c = io.submit_load_from(0, 2_000_000_000);
        let d = io.submit_load_from(1, 1_000_000_000);
        assert_eq!(span(&io, c), (0.0, 2.0));
        assert_eq!(span(&io, d), (2.0, 4.0));
    }

    #[test]
    fn out_of_range_link_clamps_to_last() {
        let (_c, io) = bus_engine();
        let a = io.submit_store_to(99, 1_000_000_000);
        assert_eq!(io.store_end(a).as_secs(), 1.0); // priced on the ssd link
        assert_eq!(io.write_busy_secs_on(1), 1.0);
        assert_eq!(io.write_busy_secs_on(0), 0.0);
    }

    #[test]
    fn bus_serialises_stores_across_links() {
        let (_c, io) = bus_engine();
        let a = io.submit_store_to(0, 2_000_000_000); // 0..1 s at the bus rate
        let b = io.submit_store_to(1, 1_000_000_000); // bus busy until 1 s
        let c = io.submit_store_to(0, 2_000_000_000); // behind b on the bus
        assert_eq!(io.store_end(a).as_secs(), 1.0);
        assert_eq!(io.store_end(b).as_secs(), 2.0);
        assert_eq!(io.store_end(c).as_secs(), 3.0);
        // Per-link drain reflects the bus schedule, not link-local FIFO.
        assert_eq!(io.writes_drain_at_on(0).as_secs(), 3.0);
        assert_eq!(io.writes_drain_at_on(1).as_secs(), 2.0);
        assert_eq!(io.bus_write_bps(), 2e9);
    }

    #[test]
    fn bus_jobs_pay_the_slower_of_link_and_bus() {
        let (_c, io) = bus_engine();
        // The ssd link (1 GB/s) is slower than the bus (2 GB/s).
        let a = io.submit_store_to(1, 1_000_000_000);
        assert_eq!(io.store_end(a).as_secs(), 1.0);
        assert_eq!(io.write_busy_secs_on(1), 1.0);
    }

    #[test]
    fn bus_cancellation_reflows_the_global_order() {
        let (_c, io) = bus_engine();
        let _a = io.submit_store_to(0, 2_000_000_000); // 0..1 s
        let b = io.submit_store_to(1, 1_000_000_000); // 1..2 s
        let c = io.submit_store_to(0, 2_000_000_000); // 2..3 s
        assert!(io.try_cancel_store(b, SimTime::from_secs(0.5)));
        // c pulls forward across the freed bus slot.
        assert_eq!(io.store_end(c).as_secs(), 2.0);
        assert_eq!(io.bytes_written(), 4_000_000_000);
    }

    #[test]
    fn bus_throttle_stretches_the_serialised_schedule() {
        let (clock, io) = bus_engine();
        let a = io.submit_store_to(0, 2_000_000_000); // 0..1 s
        let b = io.submit_store_to(1, 1_000_000_000); // 1..2 s
        clock.advance_by(0.5);
        io.throttle(2.0);
        // a: half done, remaining half at half speed → ends at 1.5 s.
        assert_eq!(io.store_end(a).as_secs(), 1.5);
        // b: not started, 2 s at the slowed rate, behind a on the bus.
        assert_eq!(io.store_end(b).as_secs(), 3.5);
    }

    #[test]
    fn single_link_bus_matches_the_flat_engine() {
        let clock = SimClock::new();
        let flat = IoEngine::new(clock.clone(), 1e9, 2e9);
        let bus = IoEngine::tiered_with_bus(
            clock.clone(),
            vec![TierLink::new("offload", 1e9, 2e9)],
            25e9,
        );
        for io in [&flat, &bus] {
            let a = io.submit_store(1_000_000_000);
            let b = io.submit_store(500_000_000);
            io.try_cancel_store(b, SimTime::from_secs(0.5));
            assert_eq!(io.store_end(a).as_secs(), 1.0);
            assert_eq!(io.writes_drain_at().as_secs(), 1.0);
            assert_eq!(io.bytes_written(), 1_000_000_000);
            let r = io.submit_load_from(0, 2_000_000_000);
            assert_eq!(io.read_end(r).as_secs(), 1.0);
        }
    }

    #[test]
    fn store_job_overhead_prices_per_job_not_per_byte() {
        let (_c, io) = engine();
        io.set_store_job_overhead(0.25);
        let a = io.submit_store(1_000_000_000); // 0.25 + 1.0 s
        let b = io.submit_store(1_000_000_000); // queued, same cost
        assert_eq!(io.store_end(a).as_secs(), 1.25);
        assert_eq!(io.store_end(b).as_secs(), 2.5);
        // One coalesced job moves the same bytes for one overhead.
        io.reset();
        let c = io.submit_store(2_000_000_000);
        assert_eq!(io.store_end(c).as_secs(), 2.25);
        assert_eq!(io.store_job_overhead_secs(), 0.25);
    }

    #[test]
    fn store_job_overhead_survives_cancellation_reflow() {
        let (_c, io) = engine();
        io.set_store_job_overhead(0.5);
        let _a = io.submit_store(1_000_000_000); // 0 .. 1.5 s
        let b = io.submit_store(1_000_000_000); // 1.5 .. 3.0 s
        let c = io.submit_store(1_000_000_000); // 3.0 .. 4.5 s
        assert!(io.try_cancel_store(b, SimTime::from_secs(0.5)));
        // c keeps its 0.5 s overhead after pulling forward.
        assert_eq!(io.store_end(c).as_secs(), 3.0);
    }

    #[test]
    fn per_link_busy_accounting_tracks_reads() {
        let (_c, io) = bus_engine();
        io.submit_load_from(0, 2_000_000_000); // 1 s at 2 GB/s
        io.submit_load_from(1, 1_000_000_000); // 1 s at 1 GB/s
        assert_eq!(io.read_busy_secs_on(0), 1.0);
        assert_eq!(io.read_busy_secs_on(1), 1.0);
        assert_eq!(io.link_name(0), "dram");
        assert_eq!(io.link_name(1), "ssd");
        io.reset();
        assert_eq!(io.read_busy_secs_on(0), 0.0);
    }

    #[test]
    fn a_demand_read_overtakes_queued_prefetches_not_one_in_flight() {
        let (clock, io) = engine(); // reads at 2 GB/s
        let a = io.submit_load_from(0, 2_000_000_000); // 0..1 s
        let b = io.submit_load_from(0, 2_000_000_000); // 1..2 s
        let c = io.submit_load_from(0, 2_000_000_000); // 2..3 s
        clock.advance_by(0.5); // a is in flight, b and c are queued
        let d = io.submit_demand_load_from(0, 1_000_000_000); // 0.5 s
        assert_eq!(span(&io, a), (0.0, 1.0), "in flight: not overtaken");
        assert_eq!(span(&io, d), (1.0, 1.5));
        assert_eq!(span(&io, b), (1.5, 2.5));
        assert_eq!(span(&io, c), (2.5, 3.5));
        assert_eq!(io.bytes_read(), 7_000_000_000);
    }

    #[test]
    fn demand_reads_stay_fifo_among_themselves() {
        let (_c, io) = engine();
        let p = io.submit_load_from(0, 2_000_000_000); // would run 0..1 s
        let d1 = io.submit_demand_load_from(0, 1_000_000_000);
        let d2 = io.submit_demand_load_from(0, 1_000_000_000);
        // Neither demand read overtakes the other; both go ahead of the
        // prefetch that had not started at their submit time.
        assert_eq!(span(&io, d1), (0.0, 0.5));
        assert_eq!(span(&io, d2), (0.5, 1.0));
        assert_eq!(span(&io, p), (1.0, 2.0));
        // A prefetch submitted now queues behind everything.
        let q = io.submit_load_from(0, 2_000_000_000);
        assert_eq!(span(&io, q), (2.0, 3.0));
    }

    #[test]
    fn a_pushed_back_prefetch_moves_by_the_demand_reads_duration() {
        let (clock, io) = bus_engine(); // 2 GB/s bus, ssd link at 1 GB/s
        let head = io.submit_load_from(0, 4_000_000_000); // 0..2 s
        let p = io.submit_load_from(1, 1_000_000_000); // 2..3 s
        clock.advance_by(1.0);
        let before = io.read_end(p);
        let d = io.submit_demand_load_from(1, 500_000_000); // 0.5 s at 1 GB/s
        let (start, end) = io.read_span(d);
        assert_eq!(start, io.read_end(head));
        assert_eq!(io.read_end(p).since(before), end.since(start));
        assert_eq!(io.read_end(p).as_secs(), 3.5);
    }

    #[test]
    fn a_moved_read_retimes_its_trace_spans_and_memory_stamps() {
        use ssdtrain_tensor::{MemClass, MemTracker};
        let (clock, io) = engine();
        let sink = TraceSink::enabled();
        io.set_trace(sink.clone());
        let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
        io.set_memory(mem.clone());
        let p = io.submit_load_from(0, 2_000_000_000); // 0..1 s
        let ((), restore) = mem.with_time_logged(io.read_end(p), || {
            mem.on_alloc(2_000_000_000, MemClass::Activation)
        });
        io.track_landing(p, restore, SimTime::ZERO);
        io.submit_demand_load_from(0, 1_000_000_000); // 0..0.5 s, ahead of p
        assert_eq!(span(&io, p), (0.5, 1.5));
        let events = sink.events();
        let of = |name: &str| {
            let e = events.iter().find(|e| e.name == name).expect(name);
            (e.ts.as_secs(), e.end().as_secs())
        };
        assert_eq!(of("load"), (0.5, 1.5), "the prefetch's load span moved");
        assert_eq!(of("xfer.offload-read"), (0.5, 1.5));
        assert_eq!(mem.timeline()[0].time.as_secs(), 1.5, "restore moved");
    }
}
