#!/usr/bin/env bash
# Builds origin-serve, origin-router and the benchmark driver from the
# checkout it is run in, then runs the driver. Run from the repository root:
#
#   bash perfbench/run.sh --workload stream-durable --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh --selfcheck
#
# Everything the run writes (Go build cache, binaries, model cache, server
# logs, state directories, span dumps) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/origin-serve" || ! -d "$root/cmd/origin-router" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/origin-serve and cmd/origin-router not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root" && go build -o "$build/bin/" ./cmd/origin-serve ./cmd/origin-router)
(cd "$here" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
