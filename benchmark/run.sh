#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments; run it from the repository root:
#
#   bash benchmark/run.sh --workload serve-steady --seed 7 --seconds 20 --trace 0
#
# The Go build cache, the binary and traced runs' output all stay under
# .bench_build/ at the repository root. Build output goes to standard error,
# so the last line of standard output is the benchmark's JSON result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" "$@"
