#!/usr/bin/env bash
# Builds cmd/perfbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash cmd/perfbench/run.sh --workload fig6 --seed 42 --seconds 15 --trace 0
#
# Every file the build and the run write lands under .bench_build/ in
# the current directory: the Go build cache, temporary files, the
# binary and the traced run's output.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd cmd/perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
