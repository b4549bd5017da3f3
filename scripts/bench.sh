#!/usr/bin/env bash
# bench.sh — emit a BENCH_<sha>.json snapshot of the simulated metrics.
#
# The snapshot is a plain cmd/comparebench campaign file: the Fig. 6
# results for every service (plus the idle and lossy sections) from the
# twente vantage at 4 repetitions and seed 42. This script is the one
# place that fixes that shape; scripts/trendcheck.sh and CI both take
# their HEAD snapshot through it. The commit a snapshot measured is
# the <sha> in its file name. Wall-clock performance is measured by
# cmd/perfbench, not here.
#
# Track the simulated-metric trajectory across commits with:
#
#   scripts/bench.sh                       # writes BENCH_<sha>.json
#   comparebench -a BENCH_old.json -b BENCH_new.json
#
# Usage: scripts/bench.sh [out.json]
set -euo pipefail
cd "$(dirname "$0")/.."

sha="$(git rev-parse --short HEAD 2>/dev/null || echo dev)"
out="${1:-BENCH_${sha}.json}"

go run ./cmd/comparebench -run -from twente -reps 4 -seed 42 -out "${out}"
