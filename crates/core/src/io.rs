//! Store/load job engine — the paper's two I/O thread pools
//! (Section 3.3.2).
//!
//! Timing is modelled on the simulated clock. Every offload write
//! leaves the GPU over *one* PCIe link, whatever tier it lands on, so
//! the store side is a single FIFO: a job submitted at `t` starts when
//! the previous live job finished and occupies the shared write bus for
//! `bytes / min(link write bps, bus bps)`. Queued (not yet started)
//! store jobs can be *cancelled* when their tensor was forwarded
//! (adaptive offloading feature 1), which pulls the jobs behind them
//! forward. Each job remembers the tier link it targets, so per-link
//! drain times, busy seconds and byte counts are filters over the one
//! list.
//!
//! Loads are priced per tier link — PCIe-to-DRAM for a host pool tier,
//! PCIe-to-SSD for the array — and independently of each other and of
//! the stores: PCIe is full duplex and the read path is not the paper's
//! bottleneck.
//!
//! [`IoEngine::tiered_with_bus`] builds the engine over any number of
//! links; [`IoEngine::new`] is the one-link shape, whose bus is its own
//! link.
// ssdtrain-lint: hot-path

use parking_lot::Mutex;
use ssdtrain_simhw::{Channel, SimClock, SimTime};
use ssdtrain_trace::{LinkTraceBridge, TraceCategory, TraceSink};
use std::sync::Arc;

/// Handle to a submitted store job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(usize);

/// The simulated write/read bandwidths of one tier's link.
#[derive(Debug, Clone, PartialEq)]
pub struct TierLink {
    /// Link name; the read channel is traced as `"<name>-read"`.
    pub name: String,
    /// Store-direction bandwidth, bytes/s.
    pub write_bps: f64,
    /// Load-direction bandwidth, bytes/s.
    pub read_bps: f64,
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

/// One tier link's fixed parts: its name, rated write bandwidth and
/// read channel (the channel keeps its own bookings).
struct Link {
    name: String,
    write_bps: f64,
    reads: Channel,
}

/// Everything the engine mutates, behind its one lock.
struct EngineState {
    /// Every store of the step in submission order — the one FIFO all
    /// links' jobs serialise through.
    jobs: Vec<WriteJob>,
    /// Product of the injected slowdown factors; prices future stores.
    slowdown: f64,
    /// Seconds each link's read direction was busy this step (sum of
    /// transfer durations booked on its read channel).
    read_busy_secs: Vec<f64>,
    /// Fixed seconds added to every store job's duration at submit time
    /// (driver ioctl + DMA descriptor setup). Rescheduling reuses
    /// `dur_secs`, so the overhead sticks to a job for life.
    store_overhead: f64,
    trace: TraceSink,
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
}

/// The simulated store/load engine shared by a tensor cache.
///
/// ```
/// use ssdtrain::IoEngine;
/// use ssdtrain_simhw::SimClock;
/// let io = IoEngine::new(SimClock::new(), 1e9, 2e9);
/// let job = io.submit_store(500_000_000); // 0.5 s at 1 GB/s
/// assert_eq!(io.store_end(job).as_secs(), 0.5);
/// let ready = io.submit_load(1_000_000_000); // full duplex
/// assert_eq!(ready.as_secs(), 0.5);
/// ```
///
/// With several tiers ([`IoEngine::tiered_with_bus`], what a
/// [`TrainSession`](../ssdtrain_train/index.html) builds) every tier
/// sits behind the same GPU PCIe link, so stores serialise FIFO across
/// links and the second store waits for the first:
///
/// ```
/// use ssdtrain::{IoEngine, TierLink};
/// use ssdtrain_simhw::SimClock;
/// let io = IoEngine::tiered_with_bus(
///     SimClock::new(),
///     vec![TierLink::new("dram", 2e9, 2e9), TierLink::new("ssd", 1e9, 1e9)],
///     2e9, // one PCIe write bus shared by both tiers
/// );
/// let a = io.submit_store_to(0, 2_000_000_000); // 0..1 s, dram at bus rate
/// let b = io.submit_store_to(1, 1_000_000_000); // bus busy until 1 s
/// assert_eq!(io.store_end(a).as_secs(), 1.0);
/// assert_eq!(io.store_end(b).as_secs(), 2.0); // cross-tier queueing
/// ```
#[derive(Clone)]
pub struct IoEngine {
    clock: SimClock,
    links: Arc<Vec<Link>>,
    /// Bandwidth of the write bus every store crosses, bytes/s.
    bus_write_bps: f64,
    /// The engine's one lock; clones share it. Nothing is called with
    /// it held except the trace sink (layer order: io → {clock, trace}).
    state: Arc<Mutex<EngineState>>,
}

impl IoEngine {
    /// Creates a single-link engine over one offload target's
    /// write/read bandwidths; the link is its own write bus.
    ///
    /// # Panics
    /// Panics if a bandwidth is not positive.
    pub fn new(clock: SimClock, write_bps: f64, read_bps: f64) -> IoEngine {
        let link = TierLink::new("offload", write_bps, read_bps);
        IoEngine::tiered_with_bus(clock, vec![link], write_bps)
    }

    /// Creates an engine whose store jobs all serialise FIFO through one
    /// shared write bus of `bus_write_bps` bytes/s, whatever link they
    /// target — the single-PCIe-link reality of the paper's testbed. A
    /// job transfers at `min(link write bps, bus bps)` (after any
    /// slowdown); loads stay independent per link (full duplex).
    ///
    /// # Panics
    /// Panics if `links` is empty or any bandwidth (including the bus)
    /// is not positive — construction-time configuration bugs.
    pub fn tiered_with_bus(clock: SimClock, links: Vec<TierLink>, bus_write_bps: f64) -> IoEngine {
        assert!(bus_write_bps > 0.0, "bus bandwidth must be positive");
        assert!(!links.is_empty(), "an IoEngine needs at least one link");
        let links: Vec<Link> = links
            .into_iter()
            .map(|l| {
                assert!(
                    l.write_bps > 0.0 && l.read_bps > 0.0,
                    "bandwidth must be positive"
                );
                Link {
                    reads: Channel::new(&format!("{}-read", l.name), l.read_bps),
                    name: l.name,
                    write_bps: l.write_bps,
                }
            })
            .collect();
        let state = EngineState {
            jobs: Vec::new(),
            slowdown: 1.0,
            read_busy_secs: vec![0.0; links.len()],
            store_overhead: 0.0,
            trace: TraceSink::disabled(),
        };
        IoEngine {
            clock,
            links: Arc::new(links),
            bus_write_bps,
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
    pub fn store_job_overhead_secs(&self) -> f64 {
        self.state.lock().store_overhead
    }

    /// Routes this engine's events into `sink`: load spans (category
    /// `load`) directly, and raw read-channel bookings (category `link`)
    /// via a [`LinkTraceBridge`] per tier. Clones of this engine share
    /// the sink.
    pub fn set_trace(&self, sink: TraceSink) {
        for link in self.links.iter() {
            link.reads.set_observer(LinkTraceBridge::new(sink.clone()));
        }
        self.state.lock().trace = sink;
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Number of tier links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Configured write bandwidth of one link, bytes/s.
    pub fn write_bps_of(&self, link: usize) -> f64 {
        self.links.get(link).map(|l| l.write_bps).unwrap_or(0.0)
    }

    /// Configured read bandwidth of one link, bytes/s.
    pub fn read_bps_of(&self, link: usize) -> f64 {
        self.links
            .get(link)
            .map(|l| l.reads.bandwidth())
            .unwrap_or(0.0)
    }

    /// Degrades both directions of *every* link by `factor` from the
    /// current simulated time: queued writes stretch fully, a write in
    /// flight stretches only its remaining portion, finished writes keep
    /// their history (FIFO order preserved), and future reads take
    /// `factor` times longer. Factors compose multiplicatively and
    /// persist across [`IoEngine::reset`] — injected hardware
    /// degradation does not heal between steps.
    ///
    /// # Panics
    /// Panics if `factor` is not positive.
    pub fn throttle(&self, factor: f64) {
        assert!(factor > 0.0, "slowdown factor must be positive");
        let now = self.clock.now();
        for link in self.links.iter() {
            link.reads.throttle(factor);
        }
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

    /// Submits a load of `bytes` on link 0 at the current time.
    pub fn submit_load(&self, bytes: u64) -> SimTime {
        self.submit_load_from(0, bytes)
    }

    /// Submits a load of `bytes` on the tier link `link` at the current
    /// time; returns the time the data is resident in GPU memory. An
    /// out-of-range link is clamped to the last one.
    pub fn submit_load_from(&self, link: usize, bytes: u64) -> SimTime {
        let link = link.min(self.links.len() - 1);
        let (start, end) = self.links[link].reads.submit(self.clock.now(), bytes);
        let mut st = self.state.lock();
        st.read_busy_secs[link] += end.as_secs() - start.as_secs();
        st.trace
            .span_bytes(TraceCategory::Load, "load", start, end, bytes);
        end
    }

    /// When the last scheduled write finishes ([`SimTime::ZERO`] when
    /// the queue is empty).
    pub fn writes_drain_at(&self) -> SimTime {
        let st = self.state.lock();
        st.end_before(st.jobs.len())
    }

    /// When the last scheduled write to one tier link finishes
    /// ([`SimTime::ZERO`] when it has none or is out of range).
    pub fn writes_drain_at_on(&self, link: usize) -> SimTime {
        let st = self.state.lock();
        let ends = st.live_jobs(link).map(|j| j.end);
        ends.fold(SimTime::ZERO, SimTime::max)
    }

    /// The name of one tier link (empty when out of range).
    pub fn link_name(&self, link: usize) -> &str {
        self.links.get(link).map(|l| l.name.as_str()).unwrap_or("")
    }

    /// Bandwidth of the write bus every store crosses, bytes/s.
    pub fn bus_write_bps(&self) -> f64 {
        self.bus_write_bps
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
        self.links.iter().map(|l| l.reads.bytes_total()).sum()
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
    pub fn write_busy_secs_on(&self, link: usize) -> f64 {
        self.state.lock().live_jobs(link).map(|j| j.dur_secs).sum()
    }

    /// Seconds one tier link's read direction was busy this step.
    pub fn read_busy_secs_on(&self, link: usize) -> f64 {
        let st = self.state.lock();
        st.read_busy_secs.get(link).copied().unwrap_or(0.0)
    }

    /// Clears all job state on every link (new measured step). An
    /// injected slowdown persists; see [`IoEngine::throttle`].
    pub fn reset(&self) {
        for link in self.links.iter() {
            link.reads.reset();
        }
        let mut st = self.state.lock();
        st.jobs.clear();
        st.read_busy_secs.fill(0.0);
    }
}

impl std::fmt::Debug for IoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoEngine")
            .field("links", &self.links.len())
            .field("bus_write_gbps", &(self.bus_write_bps / 1e9))
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
        let ready = io.submit_load(2_000_000_000); // 1 s at 2 GB/s
        assert_eq!(ready.as_secs(), 2.0);
        assert_eq!(io.bytes_read(), 2_000_000_000);
    }

    #[test]
    fn writes_overlap_reads_full_duplex() {
        let (_c, io) = engine();
        io.submit_store(1_000_000_000);
        let ready = io.submit_load(2_000_000_000);
        // Read finishes at 1 s even though a write occupies 0..1 s.
        assert_eq!(ready.as_secs(), 1.0);
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
        let ready = io.submit_load(2_000_000_000);
        assert_eq!(ready.as_secs(), 2.5);
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
        let (_c, io) = bus_engine();
        let dram_ready = io.submit_load_from(0, 2_000_000_000); // 1 s at 2 GB/s
        let ssd_ready = io.submit_load_from(1, 2_000_000_000); // 2 s at 1 GB/s
        assert_eq!(dram_ready.as_secs(), 1.0);
        assert_eq!(ssd_ready.as_secs(), 2.0);
        assert_eq!(io.read_busy_secs_on(0), 1.0);
        assert_eq!(io.read_busy_secs_on(1), 2.0);
        assert_eq!(io.bytes_read(), 4_000_000_000);
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
        assert_eq!(io.submit_load_from(0, 2_000_000_000).as_secs(), 2.0);
        assert_eq!(io.submit_load_from(1, 1_000_000_000).as_secs(), 2.0);
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
}
