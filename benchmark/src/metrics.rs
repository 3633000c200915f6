//! The metric names this benchmark reports, in the order it prints them.
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in
//! step.

use crate::stats::Metric;
use std::collections::BTreeMap;

/// Unit of simulated seconds: what the modelled hardware would take, as
/// opposed to `s`/`ms`, which are what this host took.
pub const SIM_S: &str = "sim_s";

/// End-to-end metrics, all lower-is-better, reported by every workload
/// with tracing off. Apart from `setup_s` they are counts and simulated
/// quantities that repeat from run to run; the wall-clock step time does
/// not on a shared sandbox (see the README) and is reported per layer.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("host_alloc_mb_per_step", "MB"),
    ("host_allocs_per_step", "count"),
    ("peak_rss_mb", "MB"),
    ("sim_step_s", SIM_S),
    ("sim_act_peak_gib", "GiB"),
];

/// Per-layer metrics, reported by the traced run. The first three are
/// end-to-end quantities that cannot carry a relative bound: the step's
/// wall time (too noisy here) and two that are legitimately 0 on
/// `func_keep`.
pub const PER_LAYER: [(&str, &str); 80] = [
    ("host_step_ms", "ms"),
    ("sim_exposed_io_s", SIM_S),
    ("sim_ssd_write_gb", "GB"),
    // tensor
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.bmm_gflops", "GFLOP/s"),
    ("tensor.softmax_us", "us"),
    ("tensor.layernorm_us", "us"),
    ("tensor.gelu_us", "us"),
    ("tensor.to_bytes_mb_per_s", "MB/s"),
    ("tensor.decode_mb_per_s", "MB/s"),
    ("tensor.alloc_mb_per_matmul", "MB"),
    // autograd
    ("autograd.fwd_ms", "ms"),
    ("autograd.bwd_ms", "ms"),
    ("autograd.saved_per_step", "count"),
    // cache
    ("cache.stores", "count"),
    ("cache.dedup_hits", "count"),
    ("cache.forwarded", "count"),
    ("cache.cancelled_stores", "count"),
    ("cache.kept", "count"),
    ("cache.prefetches", "count"),
    ("cache.sync_loads", "count"),
    ("cache.offloaded_mb", "MB"),
    ("cache.reloaded_mb", "MB"),
    ("cache.load_stall_s", SIM_S),
    ("cache.store_stall_s", SIM_S),
    ("cache.pack_us", "us"),
    ("cache.unpack_us", "us"),
    ("cache.drain_us", "us"),
    ("cache.state_store_us", "us"),
    ("cache.state_load_us", "us"),
    ("cache.self_ms_per_step", "ms"),
    ("cache.alloc_b_per_spilled_b", "B/B"),
    // coalesce
    ("coalesce.segments", "count"),
    ("coalesce.fill_ratio", "ratio"),
    ("coalesce.evictions", "count"),
    ("coalesce.stage_seal_ns", "ns"),
    // io
    ("io.store_jobs", "count"),
    ("io.write_busy_s", SIM_S),
    ("io.read_busy_s", SIM_S),
    ("io.write_util", "ratio"),
    ("io.read_util", "ratio"),
    ("io.submit_store_ns", "ns"),
    ("io.cancel_reflow_us", "us"),
    // tier
    ("tier.front_mb", "MB"),
    ("tier.ssd_mb", "MB"),
    ("tier.spilled_mb", "MB"),
    ("tier.stall_s", SIM_S),
    // target
    ("target.write_calls", "count"),
    ("target.write_batch_calls", "count"),
    ("target.read_calls", "count"),
    ("target.files_per_segment", "count"),
    ("target.waf", "ratio"),
    ("target.write_mb_per_s", "MB/s"),
    ("target.read_mb_per_s", "MB/s"),
    ("target.write_ms_per_step", "ms"),
    ("target.read_ms_per_step", "ms"),
    ("target.read_alloc_mb", "MB"),
    // simhw
    ("simhw.timeline_points", "count"),
    ("simhw.arena_high_water_mb", "MB"),
    ("simhw.arena_slab_reuses", "count"),
    ("simhw.peak_query_us", "us"),
    ("simhw.channel_submit_ns", "ns"),
    ("simhw.arena_cycle_ns", "ns"),
    // adaptive / costmodel
    ("adaptive.decide_ns", "ns"),
    ("adaptive.kept_modules", "count"),
    ("costmodel.pred_err_frac", "ratio"),
    // train
    ("train.session_new_ms", "ms"),
    ("train.profile_step_ms", "ms"),
    ("train.step_wall_p90_ms", "ms"),
    ("train.tokens_per_host_s", "1/s"),
    ("train.sim_fwd_s", SIM_S),
    ("train.sim_bwd_s", SIM_S),
    ("train.sim_comm_s", SIM_S),
    ("train.sim_opt_s", SIM_S),
    ("train.sim_opt_exposed_s", SIM_S),
    ("train.sim_compute_s", SIM_S),
    ("train.pipeline_sim_us", "us"),
    // trace
    ("trace.events_per_step", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.chrome_export_ms", "ms"),
];

/// Values for a table of names: everything starts at 0 ("this workload
/// bypasses that layer") and is reported in table order.
#[derive(Debug, Clone)]
pub struct Values {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// All-zero values for `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Values {
        Values {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in the table — a typo in this harness.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|(n, _)| *n == name),
            "metric {name} is not in the table"
        );
        // An empty float sum is -0.0; report it as the 0 it means.
        self.values.insert(name, value + 0.0);
    }

    /// Every name of the table with its value and unit, in table order.
    pub fn into_metrics(self) -> Vec<Metric> {
        self.table
            .iter()
            .map(|(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_under(json: &str, key: &str) -> Vec<String> {
        // `BENCHMARK.json` is written by hand in a fixed layout: one
        // `{"name": "...", ...}` object per line under each key.
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let rest = &json[start..];
        let end = rest.find(']').expect("array closes");
        rest[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_under(&json, "end_to_end"), e2e);
        assert_eq!(names_under(&json, "per_layer"), layers);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must be listed with unit {unit}"
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
