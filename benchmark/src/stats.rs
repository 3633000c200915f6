//! Order statistics, the metric row type and the hand-written JSON the
//! harness emits (the workspace's `serde` is a marker-only shim).

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured, all digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric row.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The `q`-quantile (nearest rank on the sorted sample); 0 for an empty
/// sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// The median (upper middle for even counts, so the value is always one
/// that was measured).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median of integer samples, exact.
pub fn median_u64(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    v[v.len() / 2]
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON number: Rust's shortest round-trip form, which keeps every
/// measured digit. Non-finite values have no JSON form and become 0 —
/// callers count them as failures before they get here.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(&mut out, m.name);
        out.push_str(": {\"value\": ");
        out.push_str(&json_num(m.value));
        out.push_str(", \"unit\": ");
        push_json_str(&mut out, m.unit);
        out.push('}');
    }
    out.push('}');
    out
}

/// A JSON array of strings.
pub fn string_array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(&mut out, s);
    }
    out.push(']');
    out
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    push_json_str(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_pick_measured_values() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_u64(&[9, 7, 7, 7, 8]), 7);
    }

    #[test]
    fn json_is_escaped_and_ordered() {
        let m = [
            Metric {
                name: "b",
                value: 0.1 + 0.2,
                unit: "ms",
            },
            Metric {
                name: "a",
                value: f64::NAN,
                unit: "count",
            },
        ];
        assert_eq!(
            metrics_object(&m),
            "{\"b\": {\"value\": 0.30000000000000004, \"unit\": \"ms\"}, \
             \"a\": {\"value\": 0, \"unit\": \"count\"}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
