#!/usr/bin/env bash
# Appends one row of the performance trajectory to BENCH_history.json.
#
#   scripts/bench_record.sh <pr> [benchmark/run.sh options, e.g. --seed 11]
#
# Runs the whole benchmark (benchmark/run.sh, every workload plain then
# traced), reads the gated end-to-end metrics of BENCHMARK.json from
# benchmark/out/<workload>.json and a fixed set of per-layer metrics from
# the traced run's benchmark/out/<workload>.layers.json (plus the plain
# run's host_step_median_ms, the wall-time figure a perf change quotes),
# and appends
#   {"pr", "commit", "seed", "seconds", "failed",
#    "workloads": {name: {metric: value}}, "layers": {name: {metric: value}}}
# as one line of the tracked JSON array at the repository root. The gated
# columns stay under "workloads", comparable with every earlier row; a
# per-layer metric a workload does not report is left out. `commit` is
# the checked-out commit, suffixed `+` when the tree differs from it (the
# row of a change is recorded before the change is committed).
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { echo "usage: $0 <pr> [benchmark/run.sh options]" >&2; exit 2; }
pr="$1"
shift

bash benchmark/run.sh "$@"

commit="$(git rev-parse --short HEAD)"
git diff --quiet HEAD -- . ':!BENCH_history.json' || commit="$commit+"

python3 - "$pr" "$commit" <<'EOF'
import json, sys

pr, commit = sys.argv[1:3]
spec = json.load(open("BENCHMARK.json"))
metrics = [m["name"] for m in spec["end_to_end"]]
# The owners' numbers every CHANGES.md entry used to quote by hand.
per_layer = ["sim_exposed_io_s", "cache.store_stall_s", "cache.load_stall_s",
             "train.sim_opt_exposed_s", "io.write_util", "io.read_util",
             "sim_ssd_write_gb", "costmodel.pred_err_frac",
             "cache.alloc_b_per_spilled_b", "target.files_per_segment",
             "trace.events_per_step", "host_step_ms", "cache.forwarded",
             "io.write_busy_s", "simhw.peak_query_us",
             # The tensor-kernel layer and the autograd passes over it.
             "tensor.matmul_gflops", "tensor.gelu_us", "autograd.fwd_ms",
             "autograd.bwd_ms"]
workloads, layers, failed = {}, {}, 0
for name in (w["name"] for w in spec["workloads"]):
    out = json.load(open(f"benchmark/out/{name}.json"))
    seed, seconds = out["seed"], out["seconds"]
    failed += out["failed"]
    workloads[name] = {m: out["metrics"][m]["value"] for m in metrics}
    traced = json.load(open(f"benchmark/out/{name}.layers.json"))["metrics"]
    layers[name] = {m: traced[m]["value"] for m in per_layer if m in traced}
    median = out.get("extra", {}).get("host_step_median_ms")
    if median is not None:
        layers[name]["host_step_median_ms"] = median["value"]
row = {"pr": pr, "commit": commit, "seed": seed, "seconds": seconds,
       "failed": failed, "workloads": workloads, "layers": layers}

history = json.load(open("BENCH_history.json"))
history.append(row)
with open("BENCH_history.json", "w") as f:
    f.write("[\n" + ",\n".join(json.dumps(r) for r in history) + "\n]\n")
print(f"recorded PR {pr} @ {commit} in BENCH_history.json", file=sys.stderr)
EOF
