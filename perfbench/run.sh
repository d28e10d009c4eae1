#!/usr/bin/env bash
# Builds the EFES benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, generated inputs and spans.
#
# The build asks nothing of its surroundings: no VCS stamping (the checkout
# need not be a repository, and may sit inside one it cannot read), no C
# compiler (CGO_ENABLED=0), no module proxy and no other toolchain.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS="-mod=mod -buildvcs=false" CGO_ENABLED=0 GOENV=off \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
cd "$root"
exec "$build/bin/perfbench" "$@"
