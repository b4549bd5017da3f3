#!/usr/bin/env bash
# trendcheck.sh — fail when the engine's simulated metrics drift from
# the newest committed BENCH_<sha>.json snapshot.
#
# Two gates run, both on simulated metrics (snapshots hold nothing
# else; wall-clock performance is cmd/perfbench's job). Simulated
# metrics are deterministic given a seed, so ANY delta means an engine
# change altered simulated behaviour:
#
#  1. Baseline continuity: the newest committed snapshot is compared
#     against the previously committed one. Drift here means a new
#     baseline was committed that silently rewrote history — that
#     fails, UNLESS a committed BASELINE_RESET marker names the new
#     baseline file. A sanctioned reset is then verified the other way
#     around (`comparebench -expect-drift`): the marker must
#     correspond to a real engine change — moved metrics, or a change
#     in the compared surface itself (cells added/removed, e.g. a
#     campaign gaining its lossy section) — so a stale marker cannot
#     linger and sanction some future silent reset.
#
#  2. HEAD drift: a snapshot of HEAD (pre-built by scripts/bench.sh, or
#     freshly generated through it) is diffed against the newest committed
#     baseline with `comparebench -fail-on-drift`. The gate also fails
#     when the campaigns share no comparable cells, so a fig6-less
#     baseline cannot pass vacuously.
#
# CI runs this on every push, reusing the snapshot it just recorded.
#
# Run-shape metadata is not drift: snapshots also record how the
# sample was produced — per-cell RepsUsed and AchievedRelHW, and for
# adaptive campaigns the stopping rule (precision, max_reps). Those
# fields describe the sampling design, not simulated behaviour, and
# comparebench deliberately diffs only the metric means, so a snapshot
# recorded at fixed reps and one recorded adaptively can share a
# baseline history. Deltas that carry achieved confidence intervals
# are additionally annotated within-ci / exceeds-ci in the report —
# context for reading a failure, not a gate condition.
#
# Usage: scripts/trendcheck.sh [threshold] [snapshot.json]
set -euo pipefail
cd "$(dirname "$0")/.."

threshold="${1:-1.05}"
new="${2:-}"

# Committed BENCH_*.json baselines, oldest first, by commit time with
# the filename as a deterministic tie-break (shallow clones give every
# file the same graft timestamp; CI fetches full history).
baselines="$(git ls-files 'BENCH_*.json' | while read -r f; do
  printf '%s %s\n' "$(git log -1 --format=%ct -- "$f")" "$f"
done | sort -k1,1n -k2,2 | cut -d' ' -f2-)"
base="$(printf '%s\n' "${baselines}" | tail -1)"
prev="$(printf '%s\n' "${baselines}" | tail -2 | head -1)"
if [ -z "${base}" ]; then
  echo "trendcheck: no committed BENCH_*.json baseline found" >&2
  exit 1
fi

# Gate 1: baseline continuity (only when a predecessor exists).
if [ -n "${prev}" ] && [ "${prev}" != "${base}" ]; then
  marker=""
  if git ls-files --error-unmatch BASELINE_RESET >/dev/null 2>&1; then
    marker="$(grep -v '^#' BASELINE_RESET | grep -m1 . | tr -d '[:space:]')"
  fi
  if [ "${marker}" = "${base}" ]; then
    echo "baseline reset sanctioned by BASELINE_RESET (${base}); verifying the reset is real"
    go run ./cmd/comparebench -a "${prev}" -b "${base}" -threshold "${threshold}" -expect-drift
  else
    echo "checking baseline continuity: ${prev} -> ${base}"
    go run ./cmd/comparebench -a "${prev}" -b "${base}" -threshold "${threshold}" -fail-on-drift || {
      echo "trendcheck: committed baseline ${base} silently drifted from ${prev}." >&2
      echo "A deliberate engine change must commit a BASELINE_RESET marker naming ${base}." >&2
      exit 1
    }
  fi
fi

# Gate 2: HEAD against the newest committed baseline.
if [ -z "${new}" ]; then
  new="$(mktemp -t bench_head.XXXXXX.json)"
  trap 'rm -f "${new}"' EXIT
  scripts/bench.sh "${new}"
fi

echo "comparing ${new} against baseline ${base} (threshold ${threshold})"
go run ./cmd/comparebench -a "${base}" -b "${new}" -threshold "${threshold}" -fail-on-drift
