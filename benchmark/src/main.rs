//! One benchmark for both clocks.
//!
//! `ssdtrain-benchmark --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload in this single-threaded process —
//! plain (end-to-end metrics) or traced (per-layer metrics) — prints
//! every metric by name with its unit, checks the program's outputs, and
//! ends its standard output with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `benchmark/run.sh` builds this binary and drives it; see
//! `benchmark/README.md`.

mod hostcost;
mod metrics;
mod probes;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Opts, Outcome, Workload};

#[global_allocator]
static ALLOC: hostcost::CountingAlloc = hostcost::CountingAlloc;

const USAGE: &str = "usage: ssdtrain-benchmark --workload <name> --out <dir> [--seed <n>] \
                     [--seconds <s>] [--trace <0|1>] [--quick]\n\
                     workloads: func_keep func_offload_ssd replay_tiered_segments sym_deep_tiered";

struct Args {
    opts: Opts,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut quick) = (7u64, 10.0f64, false, false);
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => quick = true,
            "--out" => out_dir = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let out_dir = out_dir.ok_or_else(|| format!("--out is required\n{USAGE}"))?;
    Ok(Args {
        opts: Opts {
            workload,
            seed,
            seconds,
            traced,
            quick,
        },
        out_dir,
    })
}

fn result_line(out: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        stats::metrics_object(&out.metrics)
    )
}

fn write_files(dir: &Path, o: &Opts, out: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let name = o.workload.name();
    let kind = if o.traced { "layers" } else { "end_to_end" };
    let body = format!(
        "{{\"workload\": {}, \"kind\": \"{kind}\", \"seed\": {}, \"seconds\": {}, \
         \"quick\": {}, \"spill_dir\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failures\": {},\n \"metrics\": {},\n \"extra\": {}}}\n",
        stats::json_str(name),
        o.seed,
        stats::json_num(o.seconds),
        o.quick,
        stats::json_str(&std::env::temp_dir().to_string_lossy()),
        out.attempted,
        out.failed,
        stats::string_array(&out.failures),
        stats::metrics_object(&out.metrics),
        stats::metrics_object(&out.extra),
    );
    let stem = if o.traced {
        format!("{name}.layers.json")
    } else {
        format!("{name}.json")
    };
    std::fs::write(dir.join(stem), body)?;
    if o.traced {
        let trace = format!(
            "{{\"workload\": {}, \"seed\": {},\n \"harness_spans\": {},\n \"program_trace\": {}}}\n",
            stats::json_str(name),
            o.seed,
            spans::spans_json(&out.spans),
            out.sim_trace.as_deref().unwrap_or("null"),
        );
        std::fs::write(dir.join(format!("{name}.trace.json")), trace)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let o = &args.opts;
    let out = workloads::run(o);

    println!(
        "== {} (seed {}, {} run) ==",
        o.workload.name(),
        o.seed,
        if o.traced { "traced" } else { "plain" }
    );
    for m in out.metrics.iter().chain(out.extra.iter()) {
        println!("{:<32} {:>22} {}", m.name, stats::json_num(m.value), m.unit);
    }
    println!(
        "operations: {} attempted, {} failed",
        out.attempted, out.failed
    );
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    if let Err(e) = write_files(&args.out_dir, o, &out) {
        eprintln!("cannot write results under {}: {e}", args.out_dir.display());
        return ExitCode::from(3);
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
