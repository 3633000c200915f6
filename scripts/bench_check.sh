#!/usr/bin/env bash
# Regression gate over results/BENCH_tiering.json, which bench_tiering
# measures on a link-bound testbed (array write bandwidth ×0.25; on the
# stock one every backend hides its I/O and the rows read alike).
# Forward's stores run on into backward, so tier link speed reaches the
# *memory* a backend can afford to give up, not its step time:
#   1. every backend holds the step within 0.5 % of keep-everything;
#   2. the paper testbed orders dram > tiered-4g > ssd on offloaded bytes
#      and dram < tiered-4g < ssd on the activation peak;
#   3. two backends identical in every column means tier link speed
#      stopped reaching the planner (the degeneration this gate exists
#      to catch);
#   4. the profile-guided placement, whatever it does with the front
#      tier, is no worse than having none (ssd-only).
# Regenerate the JSON with:
#   cargo run -p ssdtrain-bench --release --bin bench_tiering
set -euo pipefail
cd "$(dirname "$0")/.."

json=results/BENCH_tiering.json
if [ ! -f "$json" ]; then
    echo "FAIL: missing $json (run the bench_tiering binary first)" >&2
    exit 1
fi

awk '
  function field(key,   v) {
    v = $0
    sub(".*\"" key "\": ", "", v)
    sub(/[,}].*/, "", v)
    return v
  }
  /"keep_step_secs":/ { keep = field("keep_step_secs") + 0 }
  # A backend object opens with its name on a line of its own; a tier
  # entry is one line starting with a brace.
  /^ +"name":/ {
    name = field("name")
    gsub(/"/, "", name)
    order[n++] = name
    next
  }
  name != "" && /"step_secs":/       { step[name] = field("step_secs") + 0 }
  name != "" && /"offloaded_bytes":/ { bytes[name] = field("offloaded_bytes") + 0 }
  name != "" && /"act_peak_bytes":/  { peak[name] = field("act_peak_bytes") + 0 }
  # Every other line of the object, verbatim: the row as a whole.
  name != "" && /[0-9]/ && !/ssd_endurance|ssd_lifespan/ { row[name] = row[name] $0 }
  END {
    fail = 0
    if (n < 2 || keep <= 0) {
      print "FAIL: bench report needs the keep baseline and at least two backends"
      exit 1
    }
    for (i = 0; i < n; i++) {
      b = order[i]
      if (!(step[b] <= keep * 1.005)) {
        printf "FAIL: %s step (%.6f s) exceeds keep-everything (%.6f s) by more than 0.5 %%\n", \
               b, step[b], keep
        fail = 1
      }
      for (j = i + 1; j < n; j++)
        if (row[b] == row[order[j]]) {
          printf "FAIL: %s and %s are identical in every column\n", b, order[j]
          fail = 1
        }
    }
    if (("dram" in step) && ("tiered-4g" in step) && ("ssd" in step)) {
      if (!(bytes["dram"] > bytes["tiered-4g"] && bytes["tiered-4g"] > bytes["ssd"])) {
        printf "FAIL: expected offloaded bytes dram > tiered-4g > ssd, got %d / %d / %d\n", \
               bytes["dram"], bytes["tiered-4g"], bytes["ssd"]
        fail = 1
      }
      if (!(peak["dram"] < peak["tiered-4g"] && peak["tiered-4g"] < peak["ssd"])) {
        printf "FAIL: expected activation peak dram < tiered-4g < ssd, got %d / %d / %d\n", \
               peak["dram"], peak["tiered-4g"], peak["ssd"]
        fail = 1
      }
    } else {
      print "FAIL: bench report is missing one of dram / tiered-4g / ssd"
      fail = 1
    }
    p = "tiered-4g-planned"
    if ((p in step) && !(bytes[p] >= bytes["ssd"] && peak[p] <= peak["ssd"])) {
      printf "FAIL: planned placement (%d B offloaded, peak %d B) is worse than ssd-only (%d B, %d B)\n", \
             bytes[p], peak[p], bytes["ssd"], peak["ssd"]
      fail = 1
    }
    if (fail) exit 1
    printf "bench gate ok: %d backends hold the keep step, distinct, ordered by what they offload\n", n
  }
' "$json"

# Capacity gate over results/BENCH_capacity.json: offloading optimizer
# state to the array must buy model size the bounded host pool cannot
# (ssd/tiered max_hidden strictly above dram-only), and the overlapped
# optimizer update must expose strictly less time than the inline one.
# Regenerate with:
#   cargo run -p ssdtrain-bench --release --bin bench_capacity
capacity=results/BENCH_capacity.json
if [ ! -f "$capacity" ]; then
    echo "FAIL: missing $capacity (run the bench_capacity binary first)" >&2
    exit 1
fi

awk '
  /"name":/ {
    line = $0
    sub(/.*"name": "/, "", line)
    sub(/".*/, "", line)
    name = line
    ov = ($0 ~ /"overlap": true/) ? "yes" : "no"
    v = $0
    sub(/.*"max_hidden": /, "", v)
    sub(/,.*/, "", v)
    hidden[name "/" ov] = v + 0
  }
  /"backend":/ {
    line = $0
    sub(/.*"backend": "/, "", line)
    sub(/".*/, "", line)
    b = line
    inline = $0
    sub(/.*"opt_secs_inline": /, "", inline)
    sub(/,.*/, "", inline)
    exposed = $0
    sub(/.*"opt_exposed_overlap": /, "", exposed)
    sub(/[,}].*/, "", exposed)
    timed[b] = 1
    if (!(exposed + 0 < inline + 0)) {
      printf "FAIL: %s: overlapped exposure (%s s) must stay strictly below the inline update (%s s)\n", \
             b, exposed, inline
      fail = 1
    }
  }
  END {
    for (b in timed) nb++
    if (nb < 3) {
      print "FAIL: capacity report is missing backend timings"
      fail = 1
    }
    split("no yes", ovs, " ")
    for (i in ovs) {
      ov = ovs[i]
      if (!(("ssd/" ov) in hidden) || !(("dram/" ov) in hidden) || \
          !(("tiered-4g/" ov) in hidden)) {
        printf "FAIL: capacity report is missing a backend at overlap=%s\n", ov
        fail = 1
        continue
      }
      if (!(hidden["ssd/" ov] > hidden["dram/" ov])) {
        printf "FAIL: overlap=%s: ssd max_hidden (%d) must exceed dram-only (%d)\n", \
               ov, hidden["ssd/" ov], hidden["dram/" ov]
        fail = 1
      }
      if (!(hidden["tiered-4g/" ov] > hidden["dram/" ov])) {
        printf "FAIL: overlap=%s: tiered max_hidden (%d) must exceed dram-only (%d)\n", \
               ov, hidden["tiered-4g/" ov], hidden["dram/" ov]
        fail = 1
      }
    }
    if (fail) exit 1
    printf "capacity gate ok: array-backed capacity above dram-only, overlap exposure below inline\n"
  }
' "$capacity"

# I/O-path gate over results/BENCH_io.json: write coalescing must pay —
# the coalesced arms' effective WAF and tiered step time strictly below
# the per-tensor prefetching baseline — and the double-buffered group
# prefetch must not stall the backward more than on-demand loads do.
# Regenerate with:
#   cargo run -p ssdtrain-bench --release --bin bench_io
io=results/BENCH_io.json
if [ ! -f "$io" ]; then
    echo "FAIL: missing $io (run the bench_io binary first)" >&2
    exit 1
fi

awk '
  /"name":/ {
    line = $0
    sub(/.*"name": "/, "", line)
    sub(/".*/, "", line)
    name = line
    v = $0; sub(/.*"step_secs": /, "", v); sub(/,.*/, "", v); step[name] = v + 0
    v = $0; sub(/.*"waf": /, "", v); sub(/,.*/, "", v); waf[name] = v + 0
    v = $0; sub(/.*"load_stall_secs": /, "", v); sub(/,.*/, "", v); stall[name] = v + 0
    v = $0; sub(/.*"coalesce_segments": /, "", v); sub(/,.*/, "", v); segs[name] = v + 0
    n++
  }
  END {
    fail = 0
    base = "per-tensor-depth2"
    if (!(base in step) || !("per-tensor-ondemand" in step)) {
      print "FAIL: io report is missing a per-tensor baseline arm"
      exit 1
    }
    coalesced = 0
    for (name in step) {
      if (name ~ /^coalesced-/) {
        coalesced++
        if (!(segs[name] > 0)) {
          printf "FAIL: %s sealed no segments — the coalescer never engaged\n", name
          fail = 1
        }
        if (!(waf[name] < waf[base])) {
          printf "FAIL: %s waf (%.6f) must be strictly below per-tensor (%.6f)\n", \
                 name, waf[name], waf[base]
          fail = 1
        }
        if (!(step[name] < step[base])) {
          printf "FAIL: %s step (%.6f s) must be strictly below per-tensor (%.6f s)\n", \
                 name, step[name], step[base]
          fail = 1
        }
        if (!(stall[name] <= stall["per-tensor-ondemand"])) {
          printf "FAIL: %s backward stall (%.6f s) must not exceed on-demand (%.6f s)\n", \
                 name, stall[name], stall["per-tensor-ondemand"]
          fail = 1
        }
      }
    }
    if (coalesced < 2) {
      print "FAIL: io report needs at least two coalesced arms (segment-size axis)"
      fail = 1
    }
    if (fail) exit 1
    printf "io gate ok: %d arms, coalesced waf and step below per-tensor, group stall bounded\n", n
  }
' "$io"
