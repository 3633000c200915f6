//! The one reader of a trace: [`explain`] splits each step into the
//! parts its simulated seconds and its offloaded bytes went to, read
//! from spans and instants the stack already emits.
//!
//! **Time.** A measured step (`TrainSession::run_step`) is one `step`
//! span, tiled by its stage spans (`stage.*`). Inside them sit the
//! exposed waits, each its own span:
//!
//! ```text
//! step_secs = compute_secs
//!           + load_stall_secs      Σ stall.load         unpack waits for a reload
//!           + store_wait_secs      Σ stall.store_drain  unpack waits for an in-flight store
//!           + reload_drain_secs    Σ stall.drain        backward's exit waits for reloads
//!           + store_drain_secs     tier.drain.*         a stage exit waits for the store queues
//!           + opt_secs             Σ opt.stage{j}       the inline update's stage jobs
//!           + opt_exposed_secs     Σ opt.tail           the in-backward update's tail
//! ```
//!
//! `compute_secs` is the stage spans' sum less the other terms, which
//! nest inside them. The three stall terms sum to the cache's
//! `OffloadStats::stall_secs`. At a store barrier every link that was
//! still writing gets a `tier.drain.<link>` span, all starting where the
//! barrier began, so the barrier's exposed time is its longest span;
//! their sum over barriers is `OffloadStats::store_stall_secs`.
//! Per-store-job overhead has no term of its own: it lengthens each
//! store job, and a step sees it only through `store_drain_secs`.
//!
//! A trace with no `step` span — a profiling step, a cache driven by
//! hand — has no step to split: its time terms are all 0.
//!
//! **Bytes.** [`StepBytes::of`] holds DESIGN §6's identities over the
//! `store.enqueue`, `store.cancel`, `load` and `recovery.*` events, and
//! they match the step's `OffloadStats` byte counters exactly.

use crate::{EventKind, TraceEvent};
use std::collections::BTreeMap;

/// Where one step's bytes went: DESIGN §6's accounting identities over
/// its events. Each field equals the `OffloadStats` counter of the same
/// name with `_bytes` appended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepBytes {
    /// Bytes the write bus carried: `Σ store.enqueue − Σ store.cancel −
    /// Σ recovery.keep_resident − Σ recovery.fallback`.
    pub offloaded: u64,
    /// `Σ load` span bytes.
    pub reloaded: u64,
    /// `Σ store.cancel`: stores withdrawn before their job ran.
    pub cancelled: u64,
    /// `Σ recovery.fallback`: failed stores re-routed to the fallback
    /// target.
    pub fallback: u64,
    /// `Σ recovery.keep_resident`: failed stores kept on the GPU.
    pub kept_resident: u64,
}

impl StepBytes {
    /// The identities over `events`, whatever subset they are: one step,
    /// or one offload class's lane of it (the events whose `class`
    /// argument names it).
    pub fn of<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> StepBytes {
        let mut b = StepBytes::default();
        let mut enqueued = 0;
        for e in events {
            let Some(bytes) = e.bytes() else { continue };
            match e.name.as_str() {
                "store.enqueue" => enqueued += bytes,
                "store.cancel" => b.cancelled += bytes,
                "recovery.keep_resident" => b.kept_resident += bytes,
                "recovery.fallback" => b.fallback += bytes,
                "load" => b.reloaded += bytes,
                _ => {}
            }
        }
        let withdrawn = b.cancelled + b.kept_resident + b.fallback;
        b.offloaded = enqueued.saturating_sub(withdrawn);
        b
    }
}

/// One step's time and bytes, split into their parts (see the module
/// doc for where each term is read from).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepTable {
    /// The step the events are stamped with.
    pub step: u32,
    /// The `step` span's length: `StepMetrics::step_secs`.
    pub step_secs: f64,
    /// Stage time that is none of the terms below.
    pub compute_secs: f64,
    /// Unpacks waiting for a reload (`stall.load`).
    pub load_stall_secs: f64,
    /// Unpacks waiting for a store still in flight (`stall.store_drain`).
    pub store_wait_secs: f64,
    /// Backward's exit waiting for its reloads (`stall.drain`).
    pub reload_drain_secs: f64,
    /// Stage exits waiting for the store queues (`tier.drain.*`):
    /// `OffloadStats::store_stall_secs`.
    pub store_drain_secs: f64,
    /// The inline update's stage jobs (`opt.stage{j}`):
    /// `StepMetrics::opt_secs`.
    pub opt_secs: f64,
    /// The in-backward update's exposed tail (`opt.tail`):
    /// `StepMetrics::opt_exposed_secs`.
    pub opt_exposed_secs: f64,
    /// Where the step's bytes went.
    pub bytes: StepBytes,
}

impl StepTable {
    /// The exposed reload and store waits unpack and backward's exit
    /// saw: `OffloadStats::stall_secs`.
    pub fn stall_secs(&self) -> f64 {
        self.load_stall_secs + self.store_wait_secs + self.reload_drain_secs
    }

    /// The terms' sum, which is `step_secs` up to rounding.
    pub fn terms_secs(&self) -> f64 {
        self.compute_secs
            + self.stall_secs()
            + self.store_drain_secs
            + self.opt_secs
            + self.opt_exposed_secs
    }
}

/// What one step's events add up to before the split.
#[derive(Default)]
struct Acc<'a> {
    step_span: Option<f64>,
    stages: f64,
    table: StepTable,
    /// Each store barrier's start and its longest `tier.drain.*` span.
    barriers: Vec<(f64, f64)>,
    events: Vec<&'a TraceEvent>,
}

/// Splits every step of `events` into its [`StepTable`], in step order
/// (a step is the number its events are stamped with, 0 for events
/// before the first).
pub fn explain(events: &[TraceEvent]) -> Vec<StepTable> {
    let mut steps: BTreeMap<u32, Acc> = BTreeMap::new();
    for e in events {
        let acc = steps.entry(e.step).or_default();
        acc.events.push(e);
        let EventKind::Span { dur_secs } = e.kind else {
            continue;
        };
        let t = &mut acc.table;
        match e.name.as_str() {
            "step" => acc.step_span = Some(dur_secs),
            "stall.load" => t.load_stall_secs += dur_secs,
            "stall.store_drain" => t.store_wait_secs += dur_secs,
            "stall.drain" => t.reload_drain_secs += dur_secs,
            "opt.tail" => t.opt_exposed_secs += dur_secs,
            name if name.starts_with("opt.stage") => t.opt_secs += dur_secs,
            name if name.starts_with("stage.") => acc.stages += dur_secs,
            name if name.starts_with("tier.drain.") => {
                let start = e.ts.as_secs();
                match acc.barriers.iter_mut().find(|b| b.0 == start) {
                    Some(b) => b.1 = b.1.max(dur_secs),
                    None => acc.barriers.push((start, dur_secs)),
                }
            }
            _ => {}
        }
    }
    let table = |(step, acc): (u32, Acc)| {
        let bytes = StepBytes::of(acc.events);
        let Some(step_secs) = acc.step_span else {
            return StepTable {
                step,
                bytes,
                ..StepTable::default()
            };
        };
        let mut t = StepTable {
            step,
            step_secs,
            // A fold from 0.0: `sum` of no `f64` is -0.0.
            store_drain_secs: acc.barriers.iter().fold(0.0, |sum, b| sum + b.1),
            bytes,
            ..acc.table
        };
        t.compute_secs = acc.stages - t.terms_secs();
        t
    };
    steps.into_iter().map(table).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArgValue, TraceCategory, TraceSink};
    use ssdtrain_simhw::SimTime;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A hand-written step: 10 s of stages, of which a 1 s load stall,
    /// a 2 s store barrier on two links, and a 0.5 s inline update.
    fn step() -> Vec<TraceEvent> {
        let sink = TraceSink::enabled();
        sink.next_step();
        let s = TraceCategory::Stage;
        sink.span(s, "stage.forward", t(0.0), t(4.0));
        sink.span(s, "stage.backward", t(4.0), t(9.0));
        sink.span(TraceCategory::Stall, "stall.load", t(5.0), t(6.0));
        sink.span(TraceCategory::Tier, "tier.drain.dram", t(7.0), t(7.5));
        sink.span(TraceCategory::Tier, "tier.drain.ssd", t(7.0), t(9.0));
        sink.span(s, "stage.optimizer", t(9.0), t(10.0));
        sink.span(s, "opt.stage0", t(9.0), t(9.5));
        sink.span(TraceCategory::Session, "step", t(0.0), t(10.0));
        sink.instant_bytes(TraceCategory::Store, "store.enqueue", t(1.0), 100);
        sink.instant_bytes(TraceCategory::Store, "store.enqueue", t(2.0), 40);
        sink.instant_bytes(TraceCategory::Store, "store.cancel", t(3.0), 10);
        let args = vec![("bytes", ArgValue::U64(20)), ("target", "cpu".into())];
        sink.instant_with(TraceCategory::Recovery, "recovery.fallback", t(3.0), args);
        sink.span_bytes(TraceCategory::Load, "load", t(5.0), t(6.0), 90);
        sink.events()
    }

    #[test]
    fn a_step_splits_into_terms_that_sum_to_it() {
        let tables = explain(&step());
        assert_eq!(tables.len(), 1);
        let table = &tables[0];
        assert_eq!(table.step, 1);
        assert_eq!(table.step_secs, 10.0);
        assert_eq!(table.load_stall_secs, 1.0);
        assert_eq!(table.store_drain_secs, 2.0, "one barrier, its longest link");
        assert_eq!(table.opt_secs, 0.5);
        assert_eq!(table.compute_secs, 6.5);
        assert_eq!(table.terms_secs(), table.step_secs);
        let bytes = StepBytes {
            offloaded: 110,
            reloaded: 90,
            cancelled: 10,
            fallback: 20,
            kept_resident: 0,
        };
        assert_eq!(table.bytes, bytes);
    }

    #[test]
    fn a_step_without_its_span_has_bytes_but_no_time() {
        let events: Vec<TraceEvent> = step().into_iter().filter(|e| e.name != "step").collect();
        let table = &explain(&events)[0];
        assert_eq!(table.terms_secs(), 0.0);
        assert_eq!(table.bytes.offloaded, 110);
    }
}
