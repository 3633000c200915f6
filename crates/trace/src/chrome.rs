//! Chrome-trace (Perfetto JSON) exporter and plain-text timeline summary.
//!
//! Serialization is written by hand with fixed-precision float
//! formatting (microseconds, three decimals) so that the same event
//! sequence always produces byte-identical JSON — a property the golden
//! trace test relies on. The workspace has no serialisation library, so
//! this is the one place events become text.

use crate::{explain, ArgValue, EventKind, StepBytes, StepTable, TraceCategory, TraceEvent};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Simulated seconds → microseconds with fixed formatting.
fn fmt_us(secs: f64) -> String {
    format!("{:.3}", secs * 1e6)
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn arg_value_into(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(u) => {
            let _ = write!(out, "{u}");
        }
        ArgValue::F64(f) => {
            let _ = write!(out, "{f:.3}");
        }
        ArgValue::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
    }
}

fn args_into(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        arg_value_into(out, v);
    }
    out.push('}');
}

fn metadata_event(out: &mut String, name: &str, pid: u32, tid: u32, value: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\""
    );
    escape_into(out, value);
    out.push_str("\"}}");
}

/// Exports `events` as a Chrome-trace JSON object (`traceEvents` array
/// plus metadata). Each training step is rendered as its own process
/// (`pid` = step number) because the simulated clock restarts at zero
/// per step; categories map to fixed display lanes via
/// [`TraceCategory::lane`]. Output is deterministic: same events in, same
/// bytes out.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");

    // Process/thread naming metadata, in deterministic (step, lane) order.
    // Lane names come from `TraceCategory::lane` itself so new categories
    // cannot drift out of sync with this exporter.
    let steps: BTreeSet<u32> = events.iter().map(|e| e.step).collect();
    let lanes: BTreeSet<(u32, u32, &str)> = events
        .iter()
        .map(|e| {
            let (tid, name) = e.cat.lane();
            (e.step, tid, name)
        })
        .collect();
    let mut first = true;
    for step in &steps {
        if !first {
            out.push(',');
        }
        first = false;
        metadata_event(&mut out, "process_name", *step, 0, &format!("step {step}"));
        out.push(',');
        let _ = write!(
            out,
            "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{step},\"tid\":0,\"args\":{{\"sort_index\":{step}}}}}"
        );
    }
    for (step, tid, lane_name) in &lanes {
        out.push(',');
        metadata_event(&mut out, "thread_name", *step, *tid, lane_name);
    }

    for ev in events {
        let (tid, _) = ev.cat.lane();
        out.push(',');
        out.push_str("{\"name\":\"");
        escape_into(&mut out, &ev.name);
        let _ = write!(
            &mut out,
            "\",\"cat\":\"{}\",\"pid\":{},\"tid\":{tid},\"ts\":{}",
            ev.cat.as_str(),
            ev.step,
            fmt_us(ev.ts.as_secs())
        );
        match ev.kind {
            EventKind::Span { dur_secs } => {
                let _ = write!(&mut out, ",\"ph\":\"X\",\"dur\":{}", fmt_us(dur_secs));
            }
            EventKind::Instant => {
                out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
            }
            EventKind::Counter => {
                out.push_str(",\"ph\":\"C\"");
            }
        }
        if !ev.args.is_empty() {
            out.push_str(",\"args\":");
            args_into(&mut out, &ev.args);
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// A step's table as two summary lines: its time split (when the trace
/// has the step's span) and where its bytes went (when any moved).
fn table_into(out: &mut String, t: &StepTable) {
    if t.step_secs > 0.0 {
        let ms = |secs: f64| secs * 1e3;
        let _ = writeln!(
            out,
            "  time  {:.3}ms = compute {:.3} + load stall {:.3} + store wait {:.3} \
             + reload drain {:.3} + store drain {:.3} + opt {:.3} + opt exposed {:.3}",
            ms(t.step_secs),
            ms(t.compute_secs),
            ms(t.load_stall_secs),
            ms(t.store_wait_secs),
            ms(t.reload_drain_secs),
            ms(t.store_drain_secs),
            ms(t.opt_secs),
            ms(t.opt_exposed_secs),
        );
    }
    let b = t.bytes;
    if b != StepBytes::default() {
        let _ = writeln!(
            out,
            "  bytes offloaded {} reloaded {} cancelled {} fallback {} kept resident {}",
            b.offloaded, b.reloaded, b.cancelled, b.fallback, b.kept_resident
        );
    }
}

#[derive(Default)]
struct CatAgg {
    count: u64,
    bytes: u64,
    busy_secs: f64,
}

/// Renders a human-readable per-step timeline summary: each step's
/// [`StepTable`] (see [`explain`]), its stage spans in chronological
/// order, then per-category aggregates.
pub fn text_summary(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for table in explain(events) {
        let step = table.step;
        let evs: Vec<&TraceEvent> = events.iter().filter(|e| e.step == step).collect();
        let _ = writeln!(out, "== step {step} ({} events) ==", evs.len());
        table_into(&mut out, &table);

        let mut stages: Vec<&&TraceEvent> = evs
            .iter()
            .filter(|e| e.cat == TraceCategory::Stage)
            .collect();
        stages.sort_by(|a, b| a.ts.as_secs().total_cmp(&b.ts.as_secs()));
        for s in stages {
            if let EventKind::Span { dur_secs } = s.kind {
                let _ = writeln!(
                    out,
                    "  {:>12} .. {:>12}  {}",
                    format!("{:.3}ms", s.ts.as_secs() * 1e3),
                    format!("{:.3}ms", (s.ts.as_secs() + dur_secs) * 1e3),
                    s.name
                );
            }
        }

        let cats = [
            TraceCategory::Store,
            TraceCategory::Coalesce,
            TraceCategory::Load,
            TraceCategory::Prefetch,
            TraceCategory::Dedup,
            TraceCategory::Forwarding,
            TraceCategory::Stall,
            TraceCategory::Fault,
            TraceCategory::Recovery,
            TraceCategory::Tier,
            TraceCategory::Link,
            TraceCategory::Alloc,
            TraceCategory::Arena,
        ];
        for cat in cats {
            let mut agg = CatAgg::default();
            for e in evs.iter().filter(|e| e.cat == cat) {
                agg.count += 1;
                agg.bytes += e.bytes().unwrap_or(0);
                if let EventKind::Span { dur_secs } = e.kind {
                    agg.busy_secs += dur_secs;
                }
            }
            if agg.count == 0 {
                continue;
            }
            let _ = write!(out, "  {:<12} {:>5} events", cat.as_str(), agg.count);
            if agg.bytes > 0 {
                let _ = write!(out, "  {:>9.3} MiB", agg.bytes as f64 / (1u64 << 20) as f64);
            }
            if agg.busy_secs > 0.0 {
                let _ = write!(out, "  {:>9.3} ms busy", agg.busy_secs * 1e3);
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;
    use ssdtrain_simhw::SimTime;

    fn sample() -> Vec<TraceEvent> {
        let sink = TraceSink::enabled();
        sink.next_step();
        sink.span_bytes(
            TraceCategory::Store,
            "store",
            SimTime::from_secs(0.001),
            SimTime::from_secs(0.002),
            1 << 20,
        );
        sink.instant(
            TraceCategory::Fault,
            "fault.write_error",
            SimTime::from_secs(0.0015),
        );
        sink.counter(
            TraceCategory::Alloc,
            "mem.peak",
            SimTime::from_secs(0.001),
            &[("total", 1024.0), ("activations", 512.0)],
        );
        sink.span(
            TraceCategory::Stage,
            "stage.forward",
            SimTime::ZERO,
            SimTime::from_secs(0.01),
        );
        sink.events()
    }

    #[test]
    fn json_is_deterministic() {
        assert_eq!(chrome_trace_json(&sample()), chrome_trace_json(&sample()));
    }

    #[test]
    fn json_contains_all_phases_and_categories() {
        let json = chrome_trace_json(&sample());
        for needle in [
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
            "\"ph\":\"M\"",
            "\"cat\":\"store\"",
            "\"cat\":\"fault\"",
            "\"cat\":\"alloc\"",
            "\"cat\":\"stage\"",
            "\"ts\":1000.000",
            "\"dur\":1000.000",
            "\"bytes\":1048576",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn string_escaping_is_safe() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn summary_lists_stage_spans_and_aggregates() {
        let text = text_summary(&sample());
        assert!(text.contains("== step 1"));
        assert!(text.contains("stage.forward"));
        assert!(text.contains("store"));
        assert!(text.contains("1.000 MiB"));
    }
}
