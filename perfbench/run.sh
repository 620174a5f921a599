#!/usr/bin/env bash
# Builds the benchmark from the source tree it belongs to and runs it,
# passing every argument on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload seal-open --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and the benchmark's scratch files all
# stay under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

(cd perfbench && go build -o "$build/perfbench" .)

commit=$(git rev-parse HEAD 2>/dev/null || true)
if [ -z "$commit" ]; then
	# Not a git checkout: name the tree by a digest of its Go sources.
	commit="tree-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
fi
PERFBENCH_COMMIT=$commit exec "$build/perfbench" "$@"
