#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags:
#
#   bash perfbench/run.sh --workload fig17 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's artifacts (spans, CPU
# profile, simulated rows) go under $CARGO_TARGET_DIR, or .bench_build
# when it is unset, so nothing is written outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac

export GOCACHE=$build/go/cache GOTMPDIR=$build/go/tmp GOPATH=$build/go/path
export GOMODCACHE=$build/go/path/pkg/mod XDG_CONFIG_HOME=$build/go/config XDG_CACHE_HOME=$build/go/xdg-cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
