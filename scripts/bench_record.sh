#!/usr/bin/env bash
# Appends one row of the performance trajectory to BENCH_history.json.
#
#   scripts/bench_record.sh <pr> [benchmark/run.sh options, e.g. --seed 11]
#
# Runs the whole benchmark (benchmark/run.sh, every workload plain then
# traced), reads the gated end-to-end metrics of BENCHMARK.json from
# benchmark/out/<workload>.json and appends
#   {"pr", "commit", "seed", "seconds", "failed", "workloads": {name: {metric: value}}}
# as one line of the tracked JSON array at the repository root. `commit` is
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
workloads, failed = {}, 0
for name in (w["name"] for w in spec["workloads"]):
    out = json.load(open(f"benchmark/out/{name}.json"))
    seed, seconds = out["seed"], out["seconds"]
    failed += out["failed"]
    workloads[name] = {m: out["metrics"][m]["value"] for m in metrics}
row = {"pr": pr, "commit": commit, "seed": seed, "seconds": seconds,
       "failed": failed, "workloads": workloads}

history = json.load(open("BENCH_history.json"))
history.append(row)
with open("BENCH_history.json", "w") as f:
    f.write("[\n" + ",\n".join(json.dumps(r) for r in history) + "\n]\n")
print(f"recorded PR {pr} @ {commit} in BENCH_history.json", file=sys.stderr)
EOF
