//! Simulated GPU memory: allocation tracking and footprint timelines.

use crate::allocator::{AllocatorReplay, AllocatorStats};
use crate::time::{SimClock, SimTime};
use parking_lot::Mutex;
use ssdtrain_tensor::{Lent, MemClass, MemTracker};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// One point of the memory-footprint timeline (Figure 7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FootprintPoint {
    /// Simulated time of the allocator event.
    pub time: SimTime,
    /// Total resident bytes after the event.
    pub total: u64,
    /// Resident activation bytes after the event.
    pub activations: u64,
}

/// A step's memory picture, read from the tracker in one pass by
/// [`GpuMemory::step_memory`]: the window since the last
/// [`GpuMemory::reset`], totalled from what the device held then.
#[derive(Debug, Clone, PartialEq)]
pub struct StepMemory {
    /// The footprint timeline (see [`GpuMemory::timeline`]), [`Lent`] by
    /// the tracker.
    pub timeline: Lent<FootprintPoint>,
    /// Peak total resident bytes over the timeline.
    pub peak_total: u64,
    /// Peak resident activation bytes over the timeline.
    pub peak_activations: u64,
    /// Whether `peak_total` exceeded the device capacity.
    pub oom: bool,
    /// The caching-allocator replay: the *reserved* footprint a real
    /// PyTorch run would report on top of the allocated curve. What the
    /// device held at the reset starts out allocated and reserved, and
    /// the step's own events are replayed over it.
    pub alloc: AllocatorStats,
}

/// Observes new footprint peaks as they are recorded.
///
/// Implemented by higher layers (e.g. the trace crate's memory bridge)
/// that want live allocator-peak updates without this crate depending on
/// them. Called outside the tracker's internal lock, in event-commit
/// order — future-stamped events (see [`GpuMemory::with_time`]) are
/// observed when recorded, so the notified peak is the *running* one;
/// [`StepMemory::peak_total`] remains the authoritative sorted-timeline
/// value.
pub trait PeakObserver: Send + Sync {
    /// A new peak of `total` resident bytes (of which `activations` are
    /// activation-class) was recorded at simulated time `time`.
    fn on_peak(&self, time: SimTime, total: u64, activations: u64);
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: SimTime,
    delta: i64,
    class: MemClass,
    /// Whether the event is out of the clock's order and listed in
    /// [`State::late`].
    late: bool,
}

impl Event {
    /// The event as the caching allocator sees it: `(bytes, is_free)`.
    fn request(&self) -> (u64, bool) {
        (self.delta.unsigned_abs(), self.delta < 0)
    }
}

/// The tracker's log. It stays in recording order, because
/// [`GpuMemory::restamp`] addresses events by their log position, and a
/// reader walks it in time order without copying it (DESIGN §5, *One walk
/// of the memory log*): the events the clock stamped are already in time
/// order, so only the few in `late` need sorting.
#[derive(Default)]
struct State {
    /// Resident bytes per class (`MemClass as usize`), over the tracker's
    /// lifetime.
    current: [i64; 5],
    /// Resident (total, activation) bytes when the log was last reset.
    opened: (i64, i64),
    events: Vec<Event>,
    /// Log positions of the events that would break the time order of the
    /// rest: the ones [`GpuMemory::with_time`] stamped, the ones
    /// [`GpuMemory::restamp`] moved, and any stamped before an earlier
    /// in-order event.
    late: Vec<usize>,
    /// The time of the last event recorded in order.
    in_order_until: Option<SimTime>,
    time_override: Option<SimTime>,
    live_peak: i64,
    /// The allocator replay, its buffers kept from step to step.
    replay: AllocatorReplay,
    /// The timeline [`GpuMemory::step_memory`] last lent out.
    timeline: Lent<FootprintPoint>,
    /// The live peak observer, shared by the tracker's clones.
    observer: Option<Arc<dyn PeakObserver>>,
}

/// Orders two logged events by time, then by log position: the order a
/// stable sort of the log by time gives.
fn order(events: &[Event], a: usize, b: usize) -> Ordering {
    let (ta, tb) = (events[a].time.as_secs(), events[b].time.as_secs());
    ta.total_cmp(&tb).then(a.cmp(&b))
}

impl State {
    /// The footprint timeline, each point with the event it follows:
    /// totals from `opened` on, over the log in time order (events at one
    /// instant in recording order), a merge of the in-order events with
    /// the late ones, which are sorted in place first. A restamp can move
    /// a free ahead of its allocation; a point reads a total below 0 as 0.
    fn footprint(&mut self) -> impl Iterator<Item = (&Event, FootprintPoint)> {
        let events = &self.events;
        self.late.sort_unstable_by(|&a, &b| order(events, a, b));
        let in_time_order = InTimeOrder {
            events,
            late: &self.late,
            next: 0,
            next_late: 0,
            left: events.len(),
        };
        let (mut total, mut act) = self.opened;
        in_time_order.map(move |e| {
            total += e.delta;
            if e.class == MemClass::Activation {
                act += e.delta;
            }
            let point = FootprintPoint {
                time: e.time,
                total: total.max(0) as u64,
                activations: act.max(0) as u64,
            };
            (e, point)
        })
    }
}

/// The log in time order, as [`State::footprint`] merges it.
struct InTimeOrder<'a> {
    events: &'a [Event],
    late: &'a [usize],
    /// The next log position to consider for the in-order run.
    next: usize,
    /// The next entry of `late`.
    next_late: usize,
    /// Events not yet yielded.
    left: usize,
}

impl<'a> Iterator for InTimeOrder<'a> {
    type Item = &'a Event;

    fn next(&mut self) -> Option<&'a Event> {
        let events = self.events;
        while events.get(self.next).is_some_and(|e| e.late) {
            self.next += 1;
        }
        let late = self.late.get(self.next_late).copied();
        let i = match late {
            Some(l) if self.next == events.len() || order(events, l, self.next).is_lt() => {
                self.next_late += 1;
                l
            }
            _ if self.next < events.len() => {
                self.next += 1;
                self.next - 1
            }
            _ => return None,
        };
        self.left -= 1;
        Some(&events[i])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// A GPU memory tracker.
///
/// Registered on a [`ssdtrain_tensor::Device`]; every storage allocation
/// and free is recorded with the simulated time at which it happens. The
/// tensor cache releases offloaded storages *at the store job's modelled
/// completion time* using [`GpuMemory::with_time`], so the reconstructed
/// footprint curve reflects the true overlap of transfers with compute.
///
/// ```
/// use ssdtrain_simhw::{GpuMemory, SimClock};
/// use ssdtrain_tensor::{Device, Tensor};
/// use std::sync::Arc;
///
/// let clock = SimClock::new();
/// let mem = Arc::new(GpuMemory::new(clock.clone(), 40 << 30));
/// let dev = Device::cpu();
/// dev.set_tracker(mem.clone());
/// {
///     let _t = Tensor::zeros([1024], &dev); // 4 KiB of F32
///     clock.advance_by(0.5);
/// }
/// assert_eq!(mem.step_memory().peak_total, 4096);
/// ```
#[derive(Clone)]
pub struct GpuMemory {
    clock: SimClock,
    capacity: u64,
    state: Arc<Mutex<State>>,
}

impl GpuMemory {
    /// Creates a tracker tied to `clock` with a device capacity (used for
    /// out-of-memory detection in reports).
    pub fn new(clock: SimClock, capacity: u64) -> GpuMemory {
        GpuMemory {
            clock,
            capacity,
            state: Arc::new(Mutex::new(State::default())),
        }
    }

    /// Installs (or replaces) the live peak observer. Clones of this
    /// tracker share the observer.
    pub fn set_peak_observer(&self, observer: Arc<dyn PeakObserver>) {
        self.state.lock().observer = Some(observer);
    }

    /// Runs `f` with allocator events stamped at `t` instead of the
    /// current clock time (for frees that complete in the simulated
    /// future, e.g. at a store job's end).
    pub fn with_time<R>(&self, t: SimTime, f: impl FnOnce() -> R) -> R {
        let prev = {
            let mut s = self.state.lock();
            s.time_override.replace(t)
        };
        let r = f();
        self.state.lock().time_override = prev;
        r
    }

    /// [`GpuMemory::with_time`] that also returns the log positions of
    /// the events `f` recorded, so a caller whose future time later moves
    /// can [`restamp`](GpuMemory::restamp) them.
    pub fn with_time_logged<R>(&self, t: SimTime, f: impl FnOnce() -> R) -> (R, Range<usize>) {
        let first = self.state.lock().events.len();
        let r = self.with_time(t, f);
        let last = self.state.lock().events.len();
        (r, first..last)
    }

    /// Moves the events at `events` (from [`GpuMemory::with_time_logged`])
    /// that are still stamped `was` to `t`. Events no longer there or
    /// stamped otherwise — the log was reset since — are left alone.
    pub fn restamp(&self, events: Range<usize>, was: SimTime, t: SimTime) {
        let mut s = self.state.lock();
        let State {
            events: log, late, ..
        } = &mut *s;
        let end = events.end.min(log.len());
        let start = events.start.min(end);
        for (i, e) in log[start..end].iter_mut().enumerate() {
            if e.time == was {
                e.time = t;
                if !e.late {
                    e.late = true;
                    late.push(start + i);
                }
            }
        }
    }

    fn record(&self, delta: i64, class: MemClass) {
        let new_peak = {
            let mut s = self.state.lock();
            let (time, late) = match s.time_override {
                Some(t) => (t, true),
                None => {
                    let now = self.clock.now();
                    let late = s
                        .in_order_until
                        .is_some_and(|last| now.as_secs().total_cmp(&last.as_secs()).is_lt());
                    if !late {
                        s.in_order_until = Some(now);
                    }
                    (now, late)
                }
            };
            if late {
                let at = s.events.len();
                s.late.push(at);
            }
            s.current[class as usize] += delta;
            s.events.push(Event {
                time,
                delta,
                class,
                late,
            });
            let total: i64 = s.current.iter().sum();
            if total > s.live_peak {
                s.live_peak = total;
                let act = s.current[MemClass::Activation as usize] as u64;
                s.observer.clone().map(|obs| (obs, time, total as u64, act))
            } else {
                None
            }
        };
        // Notify outside the state lock: the observer may take its own
        // locks (e.g. a trace sink) and must not deadlock against
        // re-entrant allocator calls.
        if let Some((obs, time, total, act)) = new_peak {
            obs.on_peak(time, total, act);
        }
    }

    /// Currently resident bytes of one class.
    pub fn resident(&self, class: MemClass) -> u64 {
        self.state.lock().current[class as usize] as u64
    }

    /// Currently resident bytes across all classes.
    pub(crate) fn resident_total(&self) -> u64 {
        self.state.lock().current.iter().sum::<i64>() as u64
    }

    /// The footprint timeline, sorted by event time: total and
    /// activation-class bytes after each allocator event of the step.
    pub fn timeline(&self) -> Vec<FootprintPoint> {
        self.state.lock().footprint().map(|(_, p)| p).collect()
    }

    /// Peak resident activation bytes over the timeline.
    pub fn peak_activations(&self) -> u64 {
        self.state
            .lock()
            .footprint()
            .map(|(_, p)| p.activations)
            .max()
            .unwrap_or(0)
    }

    /// Everything a step's report reads from the tracker — the timeline,
    /// both peaks, the out-of-memory verdict (the run would have hit a
    /// CUDA out-of-memory error on the real machine) and the
    /// caching-allocator replay of the events in simulated-time order —
    /// from one walk of the event log.
    /// A caller that drops each picture before the next read lets the
    /// timeline's buffer be refilled.
    pub fn step_memory(&self) -> StepMemory {
        let mut s = self.state.lock();
        let mut timeline = std::mem::take(&mut s.timeline);
        timeline.clear();
        let points = timeline.to_mut();
        points.reserve(s.events.len());
        let mut replay = std::mem::take(&mut s.replay);
        let base = s.opened.0.max(0) as u64;
        let events = s.footprint().map(|(e, p)| {
            points.push(p);
            e.request()
        });
        let alloc = replay.replay(events, base);
        s.replay = replay;
        s.timeline = timeline.clone();
        drop(s);
        let peak_total = timeline.iter().map(|p| p.total).max().unwrap_or(0);
        StepMemory {
            peak_activations: timeline.iter().map(|p| p.activations).max().unwrap_or(0),
            peak_total,
            oom: peak_total > self.capacity,
            alloc,
            timeline,
        }
    }

    /// Starts a new measured step: clears the event log and the running
    /// peak, and keeps the resident counts, so what the device holds now
    /// (parameters, kept state) counts towards [`StepMemory::peak_total`].
    pub fn reset(&self) {
        let mut s = self.state.lock();
        let act = s.current[MemClass::Activation as usize];
        s.opened = (s.current.iter().sum(), act);
        s.events.clear();
        s.late.clear();
        s.in_order_until = None;
        s.live_peak = 0;
    }
}

impl MemTracker for GpuMemory {
    fn on_alloc(&self, bytes: u64, class: MemClass) {
        self.record(bytes as i64, class);
    }
    fn on_free(&self, bytes: u64, class: MemClass) {
        self.record(-(bytes as i64), class);
    }
}

impl std::fmt::Debug for GpuMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuMemory")
            .field("capacity", &self.capacity)
            .field("resident_total", &self.resident_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gm() -> (SimClock, GpuMemory) {
        let clock = SimClock::new();
        let mem = GpuMemory::new(clock.clone(), 1 << 30);
        (clock, mem)
    }

    #[test]
    fn peak_reflects_alloc_free_ordering() {
        let (clock, mem) = gm();
        mem.on_alloc(100, MemClass::Activation);
        clock.advance_by(1.0);
        mem.on_alloc(200, MemClass::Activation);
        clock.advance_by(1.0);
        mem.on_free(100, MemClass::Activation);
        assert_eq!(mem.peak_activations(), 300);
        assert_eq!(mem.resident(MemClass::Activation), 200);
    }

    #[test]
    fn future_stamped_free_lowers_the_curve_later() {
        let (clock, mem) = gm();
        mem.on_alloc(100, MemClass::Activation);
        // Free completes at t=5 although recorded now (t=0).
        mem.with_time(SimTime::from_secs(5.0), || {
            mem.on_free(100, MemClass::Activation)
        });
        clock.advance_by(1.0);
        mem.on_alloc(50, MemClass::Activation);
        let tl = mem.timeline();
        // Timeline order: alloc@0, alloc@1, free@5.
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[1].total, 150);
        assert_eq!(tl[2].total, 50);
        assert_eq!(mem.step_memory().peak_total, 150);
    }

    #[test]
    fn restamped_events_move_on_the_timeline() {
        let (_c, mem) = gm();
        let at = SimTime::from_secs(2.0);
        let ((), logged) = mem.with_time_logged(at, || mem.on_alloc(100, MemClass::Activation));
        assert_eq!(logged, 0..1);
        mem.with_time(SimTime::from_secs(3.0), || {
            mem.on_free(100, MemClass::Activation)
        });
        // A stale stamp leaves the event alone; the right one moves it.
        mem.restamp(
            logged.clone(),
            SimTime::from_secs(9.0),
            SimTime::from_secs(4.0),
        );
        assert_eq!(mem.timeline()[0].time, at);
        mem.restamp(logged, at, SimTime::from_secs(4.0));
        let tl = mem.timeline();
        assert_eq!(tl[0].total, 0, "the free at 3 s now comes first");
        assert_eq!(tl[1].time, SimTime::from_secs(4.0));
        mem.reset();
        mem.restamp(0..1, at, SimTime::from_secs(5.0)); // a reset log: no-op
    }

    #[test]
    fn classes_are_tracked_separately() {
        let (_c, mem) = gm();
        mem.on_alloc(10, MemClass::Parameter);
        mem.on_alloc(20, MemClass::Activation);
        assert_eq!(mem.resident(MemClass::Parameter), 10);
        assert_eq!(mem.resident(MemClass::Activation), 20);
        assert_eq!(mem.resident_total(), 30);
        assert_eq!(mem.peak_activations(), 20);
    }

    #[test]
    fn windowed_peak() {
        let (clock, mem) = gm();
        mem.on_alloc(100, MemClass::Activation);
        clock.advance_by(2.0);
        mem.on_alloc(100, MemClass::Activation);
        clock.advance_by(2.0);
        mem.on_free(150, MemClass::Activation);
        let (from, to) = (SimTime::from_secs(1.0), SimTime::from_secs(3.0));
        let window = mem
            .timeline()
            .into_iter()
            .filter(|p| p.time >= from && p.time <= to);
        assert_eq!(window.map(|p| p.activations).max(), Some(200));
    }

    #[test]
    fn oom_detection() {
        let clock = SimClock::new();
        let mem = GpuMemory::new(clock, 100);
        mem.on_alloc(150, MemClass::Activation);
        assert!(mem.step_memory().oom);
        mem.on_free(150, MemClass::Activation);
        mem.reset();
        mem.on_alloc(60, MemClass::Activation);
        assert!(!mem.step_memory().oom, "the 150 B were freed");
    }

    #[test]
    fn bytes_resident_across_a_reset_still_count_towards_oom() {
        let clock = SimClock::new();
        let mem = GpuMemory::new(clock, 100);
        mem.on_alloc(80, MemClass::Parameter);
        mem.reset();
        mem.on_alloc(30, MemClass::Activation);
        let step = mem.step_memory();
        assert_eq!(step.peak_total, 110);
        assert!(step.oom, "80 B of parameters + 30 B of activations");
    }

    #[test]
    fn reset_keeps_the_resident_counts_and_the_next_peak_starts_from_them() {
        let (clock, mem) = gm();
        mem.on_alloc(1000, MemClass::Parameter);
        mem.on_alloc(200, MemClass::OptimizerState);
        mem.on_alloc(300, MemClass::Activation);
        mem.on_free(300, MemClass::Activation);
        mem.reset();
        assert_eq!(mem.resident(MemClass::Parameter), 1000);
        assert_eq!(mem.resident(MemClass::OptimizerState), 200);
        assert_eq!(mem.resident_total(), 1200);
        assert!(mem.timeline().is_empty(), "the log starts over");
        clock.advance_by(1.0);
        mem.on_alloc(50, MemClass::Activation);
        clock.advance_by(1.0);
        mem.on_free(200, MemClass::OptimizerState);
        let step = mem.step_memory();
        assert_eq!(step.peak_total, 1250);
        assert_eq!(step.peak_activations, 50, "activations start from 0");
        let totals: Vec<u64> = step.timeline.iter().map(|p| p.total).collect();
        assert_eq!(totals, [1250, 1050]);
        assert_eq!(
            step.alloc.allocated_peak,
            1200 + 512,
            "the replay starts from the resident bytes"
        );
        assert!(step.alloc.reserved >= step.peak_total);
    }

    #[test]
    fn peak_observer_sees_each_new_running_peak() {
        #[derive(Default)]
        struct Rec(Mutex<Vec<(u64, u64)>>);
        impl PeakObserver for Rec {
            fn on_peak(&self, _time: SimTime, total: u64, activations: u64) {
                self.0.lock().push((total, activations));
            }
        }
        let (_c, mem) = gm();
        let rec = Arc::new(Rec::default());
        mem.set_peak_observer(rec.clone());
        mem.on_alloc(100, MemClass::Parameter);
        mem.on_alloc(50, MemClass::Activation);
        mem.on_free(50, MemClass::Activation); // not a peak
        mem.on_alloc(200, MemClass::Activation);
        assert_eq!(
            *rec.0.lock(),
            vec![(100, 0), (150, 50), (300, 200)],
            "only strictly increasing totals are reported"
        );
        mem.reset();
        mem.on_alloc(1, MemClass::Workspace);
        assert_eq!(rec.0.lock().len(), 4, "reset restarts peak tracking");
    }

    /// The reading every query made before the log was walked in place:
    /// a clone of the log, stably sorted by time, its running totals from
    /// the `(total, activation)` bytes resident when the log opened, and
    /// the allocator replayed over it from that resident total.
    fn by_reference(mem: &GpuMemory, opened: (i64, i64)) -> (Vec<FootprintPoint>, AllocatorStats) {
        let mut evs: Vec<Event> = mem.state.lock().events.clone();
        evs.sort_by(|a, b| a.time.as_secs().total_cmp(&b.time.as_secs()));
        let (mut total, mut act) = opened;
        let mut timeline = Vec::new();
        for e in &evs {
            total += e.delta;
            if e.class == MemClass::Activation {
                act += e.delta;
            }
            timeline.push(FootprintPoint {
                time: e.time,
                total: total.max(0) as u64,
                activations: act.max(0) as u64,
            });
        }
        let events = evs.iter().map(|e| (e.delta.unsigned_abs(), e.delta < 0));
        let alloc = AllocatorReplay::default().replay(events, opened.0.max(0) as u64);
        (timeline, alloc)
    }

    /// Checks every reader of `mem` against [`by_reference`].
    fn check_readers(mem: &GpuMemory, capacity: u64, opened: (i64, i64)) -> Result<(), String> {
        let (want, want_alloc) = by_reference(mem, opened);
        let peak = |f: fn(&FootprintPoint) -> u64| want.iter().map(f).max().unwrap_or(0);
        let want_peak_total = peak(|p| p.total);
        let got = mem.step_memory();
        prop_assert_eq!(&*got.timeline, &want);
        prop_assert_eq!(got.peak_total, want_peak_total);
        prop_assert_eq!(got.peak_activations, peak(|p| p.activations));
        prop_assert_eq!(got.oom, want_peak_total > capacity);
        prop_assert_eq!(got.alloc, want_alloc);
        prop_assert_eq!(&mem.timeline(), &want);
        prop_assert_eq!(mem.peak_activations(), peak(|p| p.activations));
        Ok(())
    }

    proptest! {
        #[test]
        fn step_memory_equals_the_per_query_derivation(
            ops in prop::collection::vec((0usize..5, 1u64..5000, 0u64..10, 0u64..40, 0u64..4), 1..160),
            capacity in 1u64..40_000,
        ) {
            let clock = SimClock::new();
            let mem = GpuMemory::new(clock.clone(), capacity);
            let mut live: Vec<(u64, MemClass)> = Vec::new();
            // Future-stamped events recorded with their log positions, to
            // restamp later.
            let mut logged: Vec<(Range<usize>, SimTime)> = Vec::new();
            // What the test itself saw resident when the log last opened.
            let mut opened = (0i64, 0i64);
            for (class, bytes, kind, future, advance) in ops {
                let class = MemClass::ALL[class];
                let later = SimTime::from_secs(clock.now().as_secs() + future as f64 * 0.25);
                match kind {
                    // A free stamped in the simulated future, recorded now.
                    0 | 1 if !live.is_empty() => {
                        let (b, c) = live.swap_remove(bytes as usize % live.len());
                        let ((), at) = mem.with_time_logged(later, || mem.on_free(b, c));
                        logged.push((at, later));
                    }
                    2 if !live.is_empty() => {
                        let (b, c) = live.swap_remove(bytes as usize % live.len());
                        mem.on_free(b, c);
                    }
                    // A logged batch moves to another time, maybe one already
                    // passed, maybe after a read sorted it.
                    3 if !logged.is_empty() => {
                        let (at, was) = logged.swap_remove(bytes as usize % logged.len());
                        let to = SimTime::from_secs(future as f64 * 0.125);
                        mem.restamp(at.clone(), was, to);
                        logged.push((at, to));
                    }
                    // Any logged event moves, whichever stamped it.
                    6 => {
                        let n = mem.state.lock().events.len();
                        let i = bytes as usize % n.max(1);
                        let was = mem.state.lock().events.get(i).map(|e| e.time);
                        if let Some(was) = was {
                            mem.restamp(i..i + 1, was, later);
                        }
                    }
                    // A read in the middle of the step.
                    4 => check_readers(&mem, capacity, opened)?,
                    // The clock starts over without a reset of the log.
                    5 if future == 0 => clock.reset(),
                    // A new step: the log starts over, what is live stays.
                    5 if future == 1 => {
                        let bytes = |act: bool| {
                            let live = live.iter().filter(|(_, c)| !act || *c == MemClass::Activation);
                            live.map(|(b, _)| *b as i64).sum::<i64>()
                        };
                        opened = (bytes(false), bytes(true));
                        clock.reset();
                        mem.reset();
                        prop_assert_eq!(mem.resident_total() as i64, opened.0);
                    }
                    _ => {
                        mem.on_alloc(bytes, class);
                        live.push((bytes, class));
                    }
                }
                // Half the events share the instant of the one before.
                clock.advance_by(advance.saturating_sub(2) as f64 * 0.5);
            }
            check_readers(&mem, capacity, opened)?;
        }
    }

    #[test]
    fn integrates_with_device_storage_lifecycle() {
        use ssdtrain_tensor::{Device, Tensor};
        let clock = SimClock::new();
        let mem = GpuMemory::new(clock.clone(), 1 << 30);
        let dev = Device::cpu();
        dev.set_tracker(Arc::new(mem.clone()));
        {
            let _t = Tensor::zeros([256], &dev); // 256 * 4 bytes (F32)
            assert_eq!(mem.resident_total(), 1024);
        }
        assert_eq!(mem.resident_total(), 0);
        assert_eq!(mem.step_memory().peak_total, 1024);
    }
}
