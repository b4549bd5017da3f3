#!/usr/bin/env bash
# perfpair.sh — paired wall-clock comparison of two revisions on the
# repository benchmark (cmd/perfbench, BENCHMARK.json).
#
# Each side is exported with `git archive` into a temporary directory
# (or, for ".", used as the working tree stands) and run through its
# own cmd/perfbench/run.sh, the command BENCHMARK.json names, so each
# side builds its own perfbench into its own .bench_build/. For every
# workload it then runs N pairs on the same seed and duration, swapping
# which side goes first from one pair to the next so that drift in the
# machine's load does not favour either. Runs are untraced, as the
# benchmark measures them.
#
# For every end-to-end metric of BENCHMARK.json it prints each side's
# quartiles (p25/p50/p75 over the N runs) and in how many pairs the
# change beat the base, in the metric's "better" direction. It fails if
# any run reports correct=false or failed ops: both sides must
# reproduce their own committed op digests. Digests are committed for
# seed 42 only; on another seed (-e), which checks that a gain holds on
# a seed the change was not tuned on, each run is held to perfbench's
# per-op invariants alone.
#
# Usage: scripts/perfpair.sh [-n pairs] [-s seconds] [-e seed] [-a base] [-b change] [workload...]
#   -n  pairs per workload (default 10)
#   -s  seconds per run (default 20)
#   -e  seed of every run (default 42)
#   -a  base revision (default HEAD^)
#   -b  changed revision (default HEAD); "." is the working tree
#   workloads default to all of BENCHMARK.json's
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

pairs=10 seconds=20 seed=42 base=HEAD^ change=HEAD
while getopts "n:s:e:a:b:" opt; do
  case "${opt}" in
    n) pairs="${OPTARG}" ;;
    s) seconds="${OPTARG}" ;;
    e) seed="${OPTARG}" ;;
    a) base="${OPTARG}" ;;
    b) change="${OPTARG}" ;;
    *) sed -n '/^# Usage/,/^set -euo/p' "$0" | sed '$d' >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

# End-to-end metrics and workloads, one JSON object per line in
# BENCHMARK.json.
metrics="$(grep '"bound"' BENCHMARK.json | sed 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/')"
workloads=("$@")
if [ "${#workloads[@]}" -eq 0 ]; then
  mapfile -t workloads < <(grep '"why"' BENCHMARK.json | sed 's/.*"name": *"\([^"]*\)".*/\1/')
fi

tmp="$(mktemp -d -t perfpair.XXXXXX)"
trap 'rm -rf "${tmp}"' EXIT

# checkout side rev: the directory side's benchmark runs from.
checkout() {
  if [ "$2" = "." ]; then
    echo "${root}"
    return
  fi
  mkdir -p "${tmp}/$1"
  git archive "$2" | tar -x -C "${tmp}/$1"
  echo "${tmp}/$1"
}
base_dir="$(checkout base "${base}")"
change_dir="$(checkout change "${change}")"
label() { if [ "$1" = "." ]; then echo "working tree"; else git rev-parse --short "$1"; fi; }

# run side dir workload: one untraced run; appends "metric value" lines
# to ${tmp}/<workload>.<side> and prints a one-line digest.
run() {
  local side="$1" dir="$2" w="$3" out
  out="$(cd "${dir}" && bash cmd/perfbench/run.sh --workload "${w}" --seed "${seed}" --seconds "${seconds}" --trace 0 2>&1)" || true
  if ! grep -q "^# ${w}: correct=true attempted=[0-9]* failed=0\$" <<<"${out}"; then
    echo "perfpair: ${side} run of ${w} is not correct:" >&2
    tail -8 <<<"${out}" >&2
    exit 1
  fi
  sed -n 's/^#   \([a-z_]*\) *\([-0-9.e+]*\) .*/\1 \2/p' <<<"${out}" | tee -a "${tmp}/${w}.${side}" |
    tr '\n' ' ' | sed "s/^/#   ${side}: /"
  echo
}

# quartiles metric file: p25 p50 p75 of the metric's runs (linear
# interpolation between order statistics).
quartiles() {
  awk -v m="$1" '$1 == m { print $2 }' "$2" | sort -g | awk '
    { v[NR] = $1 }
    function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
    END { v[NR + 1] = v[NR]; printf "%.4g / %.4g / %.4g", q(0.25), q(0.5), q(0.75) }'
}

# wins metric better workload: pairs in which the change beat the base.
wins() {
  paste <(awk -v m="$1" '$1 == m { print $2 }' "${tmp}/$3.base") \
        <(awk -v m="$1" '$1 == m { print $2 }' "${tmp}/$3.change") |
    awk -v better="$2" '(better == "higher" && $2 > $1) || (better == "lower" && $2 < $1) { n++ } END { print n + 0 }'
}

for w in "${workloads[@]}"; do
  echo "== ${w}: ${pairs} pairs of ${seconds} s on seed ${seed}, base $(label "${base}") vs change $(label "${change}") =="
  for ((i = 1; i <= pairs; i++)); do
    echo "# pair ${i}"
    if ((i % 2)); then
      run base "${base_dir}" "${w}"; run change "${change_dir}" "${w}"
    else
      run change "${change_dir}" "${w}"; run base "${base_dir}" "${w}"
    fi
  done
  printf '%-18s %-7s %-32s %-32s %s\n' metric better "base p25 / p50 / p75" "change p25 / p50 / p75" "change wins"
  while read -r m better; do
    printf '%-18s %-7s %-32s %-32s %s/%s\n' "${m}" "${better}" \
      "$(quartiles "${m}" "${tmp}/${w}.base")" "$(quartiles "${m}" "${tmp}/${w}.change")" \
      "$(wins "${m}" "${better}" "${w}")" "${pairs}"
  done <<<"${metrics}"
done
