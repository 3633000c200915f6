#!/usr/bin/env bash
# A/A check: runs the whole benchmark twice on this tree and compares the
# two result sets against the bounds in BENCHMARK.json — exact metrics
# equal, the others within their bound in spread and in median, whichever
# set ran first. See aa.py for the rules and options; exits non-zero when
# the benchmark does not agree with itself.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
command -v python3 >/dev/null || { echo "aa.sh needs python3" >&2; exit 2; }
exec python3 "$here/aa.py" "$@"
