//! Unified observability layer for the SSDTrain simulator.
//!
//! The paper's key claims — overlap of offload I/O with compute, the ROK
//! trade-off, adaptive-offloading convergence — are *timeline* arguments.
//! End-of-step aggregates ([`OffloadStats`-style counters]) cannot show
//! *why* a step is slow or whether a store actually overlapped the
//! forward pass. This crate provides the substrate:
//!
//! * [`TraceSink`] — a lock-cheap, cloneable recorder of typed spans,
//!   instants and counter samples stamped on the **simulated clock**
//!   ([`SimTime`]). A disabled sink (the default) costs one `Option`
//!   check per call site; an enabled sink appends to a `Vec` under a
//!   mutex, which is uncontended in the single-threaded simulator.
//! * [`MetricsRegistry`] — named counters / gauges / histograms that
//!   subsume ad-hoc stats structs for dashboard-style consumption.
//! * [`chrome_trace_json`] — a Chrome-trace (Perfetto JSON) exporter,
//!   hand-serialized with deterministic float formatting so golden-file
//!   tests can assert byte stability.
//! * [`text_summary`] — a plain-text per-step timeline summary.
//!
//! Event timestamps are simulated seconds converted to microseconds in
//! the exporter; each training step becomes one Chrome-trace *process*
//! (`pid = step`) because the simulated clock restarts at zero every
//! measured step.
//!
//! The [`MemoryTraceBridge`] and [`LinkTraceBridge`] adapters implement
//! the observer traits exposed by `ssdtrain-simhw` (which sits *below*
//! this crate in the dependency graph and therefore cannot emit trace
//! events directly).

#![deny(missing_docs)]

mod chrome;
mod metrics;

pub use chrome::{chrome_trace_json, text_summary};
pub use metrics::{HistogramSummary, MetricValue, MetricsRegistry};

use parking_lot::Mutex;
use ssdtrain_simhw::{PeakObserver, SimTime, TransferObserver};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// The fixed event taxonomy. Every category maps to a stable string
/// (`cat` in Chrome-trace output) and a display lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Store lifecycle: enqueue instants, committed write spans, cancels.
    Store,
    /// Activation reloads: synchronous and prefetch-issued load spans.
    Load,
    /// Prefetch decisions (issue instants).
    Prefetch,
    /// Deduplication hits (a pack that reused an existing record).
    Dedup,
    /// Data forwarding (an in-flight store served from memory).
    Forwarding,
    /// Stage boundaries (forward / backward / optimizer / micro-batch).
    Stage,
    /// Injected hardware faults.
    Fault,
    /// Recovery actions taken in response to faults.
    Recovery,
    /// Allocator peak updates (memory counters).
    Alloc,
    /// Raw link transfers (channel-level spans).
    Link,
    /// Exposed I/O stalls (compute blocked on a transfer).
    Stall,
    /// Session-level markers (step begin/end, pipeline commands).
    Session,
    /// Tier placement events (spill to a slower tier, full-stack
    /// refusal, demotion between tiers).
    Tier,
    /// Pinned staging-arena traffic (slab acquire/release, high-water
    /// counter samples).
    Arena,
    /// Write-coalescer lifecycle (segment seal/commit, member evictions).
    Coalesce,
}

impl TraceCategory {
    /// Stable string used as the Chrome-trace `cat` field.
    pub const fn as_str(self) -> &'static str {
        match self {
            TraceCategory::Store => "store",
            TraceCategory::Load => "load",
            TraceCategory::Prefetch => "prefetch",
            TraceCategory::Dedup => "dedup",
            TraceCategory::Forwarding => "forwarding",
            TraceCategory::Stage => "stage",
            TraceCategory::Fault => "fault",
            TraceCategory::Recovery => "recovery",
            TraceCategory::Alloc => "alloc",
            TraceCategory::Link => "link",
            TraceCategory::Stall => "stall",
            TraceCategory::Session => "session",
            TraceCategory::Tier => "tier",
            TraceCategory::Arena => "arena",
            TraceCategory::Coalesce => "coalesce",
        }
    }

    /// Display lane: `(tid, thread name)` in the Chrome-trace view, so
    /// related categories stack together.
    pub const fn lane(self) -> (u32, &'static str) {
        match self {
            TraceCategory::Session | TraceCategory::Stage => (0, "schedule"),
            TraceCategory::Store
            | TraceCategory::Dedup
            | TraceCategory::Forwarding
            | TraceCategory::Coalesce => (1, "store path"),
            TraceCategory::Load | TraceCategory::Prefetch | TraceCategory::Stall => {
                (2, "load path")
            }
            TraceCategory::Fault | TraceCategory::Recovery => (3, "faults"),
            TraceCategory::Alloc | TraceCategory::Link | TraceCategory::Arena => {
                (4, "memory+links")
            }
            TraceCategory::Tier => (5, "tiers"),
        }
    }
}

impl std::fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed argument value attached to an event. Byte counts are kept as
/// `U64` so byte-accounting cross-checks against stats structs stay
/// bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Exact unsigned integer (byte counts, ids).
    U64(u64),
    /// Floating-point measurement (factors, seconds).
    F64(f64),
    /// Free-form label (target names, fault kinds).
    Str(String),
}

impl ArgValue {
    /// The exact integer value, if this argument is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ArgValue::U64(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_owned())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// What shape of event this is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A closed interval starting at `ts` (Chrome-trace `ph: "X"`).
    Span {
        /// Duration in simulated seconds.
        dur_secs: f64,
    },
    /// A point event (Chrome-trace `ph: "i"`).
    Instant,
    /// A counter sample; the series values live in `args`
    /// (Chrome-trace `ph: "C"`).
    Counter,
}

/// One recorded event on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Training step the event belongs to (1-based; 0 = before any step).
    pub step: u32,
    /// Simulated start time.
    pub ts: SimTime,
    /// Span / instant / counter.
    pub kind: EventKind,
    /// Taxonomy category.
    pub cat: TraceCategory,
    /// Human-readable name (e.g. `store`, `stage.forward`).
    pub name: String,
    /// Typed key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// The `bytes` argument, if present — the payload size used by
    /// byte-accounting cross-checks.
    pub fn bytes(&self) -> Option<u64> {
        self.arg_u64("bytes")
    }

    /// The unsigned-integer argument `key`, if present.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        let found = self.args.iter().find(|(k, _)| *k == key);
        found.and_then(|(_, v)| v.as_u64())
    }

    /// End time for spans (`ts` for instants and counters).
    pub fn end(&self) -> SimTime {
        match self.kind {
            EventKind::Span { dur_secs } => self.ts.plus_secs(dur_secs),
            _ => self.ts,
        }
    }
}

#[derive(Debug, Default)]
struct SinkInner {
    events: Mutex<Vec<TraceEvent>>,
    step: AtomicU32,
}

/// A cloneable, lock-cheap recorder of trace events.
///
/// The default sink is **disabled**: every emission site pays one
/// `Option` check and nothing else, which bounds the observability
/// overhead on untraced runs. Clones share the same buffer, so a sink
/// can be handed to the cache, the I/O engine, the fault decorator and
/// the session and still produce one merged timeline.
///
/// ```
/// use ssdtrain_trace::{TraceCategory, TraceSink};
/// use ssdtrain_simhw::SimTime;
///
/// let sink = TraceSink::enabled();
/// sink.instant_bytes(TraceCategory::Store, "store.enqueue", SimTime::ZERO, 4096);
/// assert_eq!(sink.events().len(), 1);
/// assert_eq!(sink.events()[0].bytes(), Some(4096));
///
/// let off = TraceSink::disabled();
/// off.instant(TraceCategory::Stage, "ignored", SimTime::ZERO);
/// assert!(off.events().is_empty());
/// ```
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl TraceSink {
    /// A sink that records events.
    pub fn enabled() -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(SinkInner::default())),
        }
    }

    /// A sink that drops everything (the [`Default`]).
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the step counter; subsequent events are stamped with the
    /// new step. Returns the step number (first call returns 1).
    pub fn next_step(&self) -> u32 {
        match &self.inner {
            Some(inner) => inner.step.fetch_add(1, Ordering::Relaxed) + 1,
            None => 0,
        }
    }

    /// The step new events are currently stamped with.
    pub fn current_step(&self) -> u32 {
        match &self.inner {
            Some(inner) => inner.step.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Records a fully-specified event.
    pub fn emit(
        &self,
        kind: EventKind,
        cat: TraceCategory,
        name: impl Into<String>,
        ts: SimTime,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(inner) = &self.inner {
            let step = inner.step.load(Ordering::Relaxed);
            inner.events.lock().push(TraceEvent {
                step,
                ts,
                kind,
                cat,
                name: name.into(),
                args,
            });
        }
    }

    /// Records a closed span `[start, end]`.
    pub fn span(&self, cat: TraceCategory, name: impl Into<String>, start: SimTime, end: SimTime) {
        if self.inner.is_some() {
            let dur_secs = end.since(start).max(0.0);
            self.emit(EventKind::Span { dur_secs }, cat, name, start, Vec::new());
        }
    }

    /// Records a span carrying a byte count.
    pub fn span_bytes(
        &self,
        cat: TraceCategory,
        name: impl Into<String>,
        start: SimTime,
        end: SimTime,
        bytes: u64,
    ) {
        if self.inner.is_some() {
            let dur_secs = end.since(start).max(0.0);
            self.emit(
                EventKind::Span { dur_secs },
                cat,
                name,
                start,
                vec![("bytes", ArgValue::U64(bytes))],
            );
        }
    }

    /// Records a point event.
    pub fn instant(&self, cat: TraceCategory, name: impl Into<String>, ts: SimTime) {
        if self.inner.is_some() {
            self.emit(EventKind::Instant, cat, name, ts, Vec::new());
        }
    }

    /// Records a point event carrying a byte count.
    pub fn instant_bytes(
        &self,
        cat: TraceCategory,
        name: impl Into<String>,
        ts: SimTime,
        bytes: u64,
    ) {
        if self.inner.is_some() {
            self.emit(
                EventKind::Instant,
                cat,
                name,
                ts,
                vec![("bytes", ArgValue::U64(bytes))],
            );
        }
    }

    /// Records a point event with arbitrary typed arguments.
    pub fn instant_with(
        &self,
        cat: TraceCategory,
        name: impl Into<String>,
        ts: SimTime,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.inner.is_some() {
            self.emit(EventKind::Instant, cat, name, ts, args);
        }
    }

    /// Opens a span at `start`; the caller must close it with
    /// [`OpenSpan::end`] (or discard it with [`OpenSpan::cancel`]) on
    /// every path. The end timestamp comes from the simulated clock,
    /// which a `Drop` impl cannot read, so closing is deliberately
    /// manual — the `span-balance` lint proves the pairing.
    pub fn begin_span(
        &self,
        cat: TraceCategory,
        name: impl Into<String>,
        start: SimTime,
    ) -> OpenSpan {
        OpenSpan {
            sink: self.clone(),
            cat,
            name: name.into(),
            start,
            closed: false,
        }
    }

    /// Records a counter sample; each `(series, value)` pair becomes one
    /// plotted series in the Chrome-trace view.
    pub fn counter(
        &self,
        cat: TraceCategory,
        name: impl Into<String>,
        ts: SimTime,
        series: &[(&'static str, f64)],
    ) {
        if self.inner.is_some() {
            let args = series
                .iter()
                .map(|(k, v)| (*k, ArgValue::F64(*v)))
                .collect();
            self.emit(EventKind::Counter, cat, name, ts, args);
        }
    }

    /// A snapshot of all recorded events, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.events.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.events.lock().len(),
            None => 0,
        }
    }

    /// Whether nothing has been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded events and resets the step counter.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.events.lock().clear();
            inner.step.store(0, Ordering::Relaxed);
        }
    }

    /// Exports the recorded events as Chrome-trace JSON.
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.events())
    }

    /// Renders the plain-text per-step timeline summary.
    pub fn to_text_summary(&self) -> String {
        text_summary(&self.events())
    }
}

/// A manually opened span returned by [`TraceSink::begin_span`].
///
/// Unlike the RAII stage scopes, an open span cannot close itself: the
/// end timestamp is simulated time, and `Drop` has no way to read the
/// clock. [`OpenSpan::end`] records the span, [`OpenSpan::cancel`]
/// discards it. Dropping an open span without either emits a
/// `<name>.open` instant at the start time, so an unbalanced span shows
/// up in the trace instead of silently vanishing.
#[must_use = "close the span with `.end(ts)` or `.cancel()`"]
pub struct OpenSpan {
    sink: TraceSink,
    cat: TraceCategory,
    name: String,
    start: SimTime,
    closed: bool,
}

impl OpenSpan {
    /// Closes the span at `end`, recording `[start, end]`.
    pub fn end(mut self, end: SimTime) {
        self.closed = true;
        let name = std::mem::take(&mut self.name);
        self.sink.span(self.cat, name, self.start, end);
    }

    /// Discards the span without recording anything.
    pub fn cancel(mut self) {
        self.closed = true;
    }

    /// The span's start time (useful when the closer recomputes
    /// durations).
    pub fn start(&self) -> SimTime {
        self.start
    }
}

impl Drop for OpenSpan {
    fn drop(&mut self) {
        if !self.closed {
            let name = std::mem::take(&mut self.name);
            self.sink
                .instant(self.cat, format!("{name}.open"), self.start);
        }
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.is_enabled())
            .field("events", &self.len())
            .finish()
    }
}

/// Adapter: forwards [`GpuMemory`](ssdtrain_simhw::GpuMemory) peak
/// updates into a [`TraceSink`] as counter samples (category `alloc`).
#[derive(Debug, Clone)]
pub struct MemoryTraceBridge {
    sink: TraceSink,
}

impl MemoryTraceBridge {
    /// Wraps `sink` for [`GpuMemory::set_peak_observer`](ssdtrain_simhw::GpuMemory::set_peak_observer).
    pub fn new(sink: TraceSink) -> Arc<MemoryTraceBridge> {
        Arc::new(MemoryTraceBridge { sink })
    }
}

impl PeakObserver for MemoryTraceBridge {
    fn on_peak(&self, time: SimTime, total: u64, activations: u64) {
        self.sink.counter(
            TraceCategory::Alloc,
            "mem.peak",
            time,
            &[("total", total as f64), ("activations", activations as f64)],
        );
    }
}

/// Adapter: forwards [`Channel`](ssdtrain_simhw::Channel) transfers into
/// a [`TraceSink`] as spans (category `link`).
#[derive(Debug, Clone)]
pub struct LinkTraceBridge {
    sink: TraceSink,
}

impl LinkTraceBridge {
    /// Wraps `sink` for [`Channel::set_observer`](ssdtrain_simhw::Channel::set_observer).
    pub fn new(sink: TraceSink) -> Arc<LinkTraceBridge> {
        Arc::new(LinkTraceBridge { sink })
    }
}

impl TransferObserver for LinkTraceBridge {
    fn on_transfer(&self, channel: &str, start: SimTime, end: SimTime, bytes: u64) {
        self.sink.span_bytes(
            TraceCategory::Link,
            format!("xfer.{channel}"),
            start,
            end,
            bytes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        sink.instant(TraceCategory::Store, "x", SimTime::ZERO);
        sink.span(
            TraceCategory::Stage,
            "y",
            SimTime::ZERO,
            SimTime::from_secs(1.0),
        );
        assert!(sink.is_empty());
        assert_eq!(sink.next_step(), 0);
        assert!(!sink.is_enabled());
    }

    #[test]
    fn clones_share_one_buffer() {
        let a = TraceSink::enabled();
        let b = a.clone();
        b.instant_bytes(TraceCategory::Load, "load", SimTime::from_secs(1.0), 128);
        assert_eq!(a.len(), 1);
        assert_eq!(a.events()[0].bytes(), Some(128));
    }

    #[test]
    fn step_counter_stamps_events() {
        let sink = TraceSink::enabled();
        sink.instant(TraceCategory::Session, "pre", SimTime::ZERO);
        assert_eq!(sink.next_step(), 1);
        sink.instant(TraceCategory::Session, "in-step", SimTime::ZERO);
        let evs = sink.events();
        assert_eq!(evs[0].step, 0);
        assert_eq!(evs[1].step, 1);
    }

    #[test]
    fn span_end_matches_duration() {
        let sink = TraceSink::enabled();
        sink.span(
            TraceCategory::Stage,
            "stage.forward",
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.5),
        );
        let ev = &sink.events()[0];
        assert_eq!(ev.end(), SimTime::from_secs(2.5));
    }

    #[test]
    fn open_span_end_records_the_span() {
        let sink = TraceSink::enabled();
        let span = sink.begin_span(TraceCategory::Session, "step", SimTime::from_secs(1.0));
        span.end(SimTime::from_secs(3.0));
        let evs = sink.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "step");
        assert_eq!(evs[0].end(), SimTime::from_secs(3.0));
    }

    #[test]
    fn open_span_cancel_records_nothing() {
        let sink = TraceSink::enabled();
        let span = sink.begin_span(TraceCategory::Session, "step", SimTime::ZERO);
        span.cancel();
        assert!(sink.is_empty());
    }

    #[test]
    fn leaked_open_span_surfaces_as_an_open_instant() {
        let sink = TraceSink::enabled();
        {
            let _span = sink.begin_span(TraceCategory::Session, "step", SimTime::ZERO);
            // dropped without end/cancel
        }
        let evs = sink.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "step.open");
        assert!(matches!(evs[0].kind, EventKind::Instant));
    }

    #[test]
    fn clear_resets_events_and_step() {
        let sink = TraceSink::enabled();
        sink.next_step();
        sink.instant(TraceCategory::Fault, "fault.write", SimTime::ZERO);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.current_step(), 0);
    }
}
