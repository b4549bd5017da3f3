#!/usr/bin/env bash
# campaignsmoke.sh — prove the campaign driver is bit-identical across
# worker counts, end to end through cmd/cloudbench.
#
# Every repeated experiment (Fig. 6, the loss sweep, the location
# studies) runs through one driver: fixed -reps budgets in a single
# flat round, -precision rules in sequential rounds whose stopping
# decisions must not depend on scheduling. The Fig. 4 and Fig. 5
# sweeps are nested fan-outs (services, then sizes largest first)
# whose idle workers join each other's pools, and so is the Table 1
# capability suite (services, then the five detectors of each probe).
# The what-if counterfactuals, Fig. 3 and discovery run the campaign
# cells' upload script once per study; Fig. 1 and the Sect. 3.1
# protocol report analyze a buffered trace per service. The smoke runs
# a fixed Fig. 6 matrix, an adaptive one, a fixed loss sweep, a fixed
# and an adaptive location study, the Fig. 4 and Fig. 5 sweeps,
# Table 1, the what-if studies, Fig. 3, discovery, Fig. 1 and the
# protocol report at -parallel 1 and -parallel 4 and
# byte-compares each pair of outputs; any diff is a determinism
# regression in the driver, the scheduler or a layer on top of them.
#
# Usage: scripts/campaignsmoke.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-42}"
dir="$(mktemp -d -t campaignsmoke.XXXXXX)"
trap 'rm -rf "${dir}"' EXIT

go build -o "${dir}/cloudbench" ./cmd/cloudbench

check() {
  local name="$1"
  shift
  "${dir}/cloudbench" -seed "${seed}" -parallel 1 "$@" > "${dir}/${name}.p1"
  "${dir}/cloudbench" -seed "${seed}" -parallel 4 "$@" > "${dir}/${name}.p4"
  if ! cmp -s "${dir}/${name}.p1" "${dir}/${name}.p4"; then
    echo "campaignsmoke: ${name} differs between -parallel 1 and -parallel 4" >&2
    diff "${dir}/${name}.p1" "${dir}/${name}.p4" | head -40 >&2 || true
    exit 1
  fi
  echo "campaignsmoke: ${name} bit-identical across worker counts"
}

check fig6-fixed -experiment fig6 -reps 2
check fig6-adaptive -experiment fig6 -precision 0.05 -max-reps 16
check loss-fixed -loss 0.02,0.08 -reps 2
check fig4 -experiment fig4
check fig5 -experiment fig5
check locations-fixed -experiment locations -reps 2
check locations-adaptive -experiment locations -precision 0.05 -max-reps 8
check table1 -experiment table1
check whatif -experiment whatif
check fig3 -experiment fig3
check discover -experiment discover
check fig1 -experiment fig1
check protocols -experiment protocols
