#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write (Go build cache, the binary,
# the cross-run digest ledger) stays under .bench_build/perfbench.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/serve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a plinger source tree" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -state "$out" "$@"
