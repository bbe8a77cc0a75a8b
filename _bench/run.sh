#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it:
#
#   bash _bench/run.sh --workload plan|replay|ctl-storm --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, and the span lists
# of traced runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/cisp-pipeline-bench" .)
exec "$out/cisp-pipeline-bench" "$@"
