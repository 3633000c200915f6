//! Drives the benchmark binary in `--quick` mode — every workload, plain
//! and traced, three steps each — so the harness cannot rot unnoticed.
//! Not part of the repository's tier-1 command.

use std::path::PathBuf;
use std::process::Command;

fn quick(workload: &str, trace: &str) -> String {
    // Spill and result files stay under Cargo's per-test scratch space.
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_ssdtrain-benchmark"))
        .args([
            "--workload",
            workload,
            "--trace",
            trace,
            "--seed",
            "7",
            "--quick",
        ])
        .arg("--out")
        .arg(scratch.join("out"))
        .env("TMPDIR", &scratch)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_owned();
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
        "{workload} trace {trace}: {stdout}"
    );
    last
}

fn value_of(line: &str, metric: &str) -> f64 {
    let key = format!("\"{metric}\": {{\"value\": ");
    let rest = &line[line
        .find(&key)
        .unwrap_or_else(|| panic!("{metric} reported"))
        + key.len()..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("a number")
}

fn runs_plain_and_traced(w: &str) {
    let plain = quick(w, "0");
    for m in [
        "setup_s",
        "host_alloc_mb_per_step",
        "host_allocs_per_step",
        "peak_rss_mb",
        "sim_step_s",
        "sim_act_peak_gib",
    ] {
        assert!(value_of(&plain, m) > 0.0, "{w}: {m} must never be 0");
    }

    let traced = quick(w, "1");
    // Tracing observes without steering: the traced run's compute +
    // exposed I/O is the plain run's step, to the last bit that counts.
    let step = value_of(&traced, "train.sim_compute_s") + value_of(&traced, "sim_exposed_io_s");
    assert!(
        (step - value_of(&plain, "sim_step_s")).abs() < 1e-9,
        "{w}: tracing moved the simulated step"
    );
    assert!(value_of(&traced, "host_step_ms") > 0.0);
    // Each layer probe follows one workload's traced run.
    let probed = |m: &str| value_of(&traced, m) > 0.0;
    assert_eq!(probed("tensor.matmul_gflops"), w == "func_keep");
    assert_eq!(probed("tensor.to_bytes_mb_per_s"), w == "func_offload_ssd");
    assert_eq!(probed("io.submit_store_ns"), w == "replay_tiered_segments");
    assert_eq!(probed("simhw.peak_query_us"), w == "sym_deep_tiered");

    let offload_counters = [
        "sim_ssd_write_gb",
        "cache.stores",
        "cache.offloaded_mb",
        "io.store_jobs",
        "tier.ssd_mb",
        "target.write_calls",
        "target.read_calls",
        "trace.events_per_step",
    ];
    for m in offload_counters {
        let v = value_of(&traced, m);
        if w == "func_keep" && m != "trace.events_per_step" {
            // The bypass workload really bypasses.
            assert_eq!(v, 0.0, "{m} on func_keep");
        } else {
            assert!(v > 0.0, "{w}: {m}");
        }
    }
}

// One test per workload, so libtest runs them side by side.
#[test]
fn func_keep() {
    runs_plain_and_traced("func_keep");
}

#[test]
fn func_offload_ssd() {
    runs_plain_and_traced("func_offload_ssd");
}

#[test]
fn replay_tiered_segments() {
    runs_plain_and_traced("replay_tiered_segments");
}

#[test]
fn sym_deep_tiered() {
    runs_plain_and_traced("sym_deep_tiered");
}
