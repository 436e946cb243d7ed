#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#   bash bench/run.sh --workload chase --seed 1 --seconds 20 --trace 0
# Run it from the repository root. The Go build cache, temporary files and
# the binary all stay under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-buildvcs=false
(cd bench && go build -o "$out/secmem-bench" .)
exec "$out/secmem-bench" "$@"
