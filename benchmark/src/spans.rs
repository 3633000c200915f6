//! Wall-clock spans the harness records around its calls into each
//! layer (traced runs only). Spans live in memory and are written out
//! when the run ends; a layer's self time is its spans' duration minus
//! what their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed (or still open) interval around a public call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call, e.g. `pack` or `write_batch`.
    pub name: &'static str,
    /// The repo module the call belongs to, e.g. `cache` or `target`.
    pub layer: &'static str,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created (0 while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The step all spans of one operation share.
    pub step: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-call-name and per-layer totals of one step's spans.
#[derive(Debug, Default, Clone)]
pub struct StepSummary {
    /// Durations per call name, in call order.
    pub by_name: BTreeMap<&'static str, Vec<u64>>,
    /// Self time per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// The in-memory span log of one run. Single-threaded use; the mutex in
/// [`SharedLog`] exists because `OffloadTarget` is `Send + Sync`.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u32,
}

/// A log shared between the rig and its [`crate::replay::TimedTarget`]s.
pub type SharedLog = Arc<Mutex<SpanLog>>;

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }
}

impl SpanLog {
    /// A fresh shared log.
    pub fn shared() -> SharedLog {
        Arc::new(Mutex::new(SpanLog::default()))
    }

    /// Starts step `step`. Room for the step's spans is reserved here so
    /// that recording a span inside a measured call does not allocate.
    pub fn begin_step(&mut self, step: u32, expected_spans: usize) {
        self.step = step;
        self.spans.reserve(expected_spans);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is currently open.
    pub fn enter(&mut self, name: &'static str, layer: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            step: self.step,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything left open beneath it).
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Totals of every recorded span, then forgets them. Children of one
    /// parent run one after another on this single thread, so the part
    /// of a span its children cover is the sum of their durations.
    pub fn take_step(&mut self) -> (StepSummary, Vec<Span>) {
        let spans = std::mem::take(&mut self.spans);
        self.open.clear();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut summary = StepSummary::default();
        for (s, covered) in spans.iter().zip(&child_ns) {
            summary.by_name.entry(s.name).or_default().push(s.dur_ns());
            *summary.self_ns.entry(s.layer).or_default() += s.dur_ns().saturating_sub(*covered);
        }
        (summary, spans)
    }
}

/// Runs `f` inside a span of `log`, when there is a log.
pub fn spanned<R>(
    log: Option<&SharedLog>,
    name: &'static str,
    layer: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let id = log.map(|l| lock(l).enter(name, layer));
    let out = f();
    if let (Some(l), Some(id)) = (log, id) {
        lock(l).exit(id);
    }
    out
}

/// Locks a shared log; the harness is single-threaded, so a poisoned
/// lock can only mean an earlier panic on this thread — keep going with
/// the data, it is only ever appended to.
pub fn lock(log: &SharedLog) -> std::sync::MutexGuard<'_, SpanLog> {
    log.lock().unwrap_or_else(|p| p.into_inner())
}

/// Spans as a JSON array of `{name, layer, start_ns, end_ns, parent, step}`.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n ");
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {}, \"step\": {}}}",
            s.name, s.layer, s.start_ns, s.end_ns, parent, s.step
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::default();
        log.begin_step(1, 8);
        let outer = log.enter("pack", "cache");
        let inner = log.enter("write", "target");
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.exit(inner);
        log.exit(outer);
        let (sum, spans) = log.take_step();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let target = sum.self_ns["target"];
        let cache = sum.self_ns["cache"];
        assert!(target >= 2_000_000);
        assert_eq!(cache + target, spans[0].dur_ns());
        assert!(log.spans.is_empty());
    }

    #[test]
    fn exit_closes_forgotten_children() {
        let mut log = SpanLog::default();
        let outer = log.enter("a", "x");
        let _leaked = log.enter("b", "y");
        log.exit(outer);
        assert!(log.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(log.open.is_empty());
    }
}
