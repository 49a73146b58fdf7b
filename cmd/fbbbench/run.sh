#!/usr/bin/env bash
# Builds fbbbench from this checkout's sources and runs it with the given
# flags. Run it from the repository root, for example:
#
#   bash cmd/fbbbench/run.sh --workload tune-open --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the binary, the Go build cache, the go
# command's own configuration and telemetry files) stays under .bench_build/
# in the repository root, and no module is ever downloaded: the benchmark
# imports only the standard library and this repository.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/fbbbench/go.mod" ]]; then
	echo "fbbbench: run from the repository root (go.mod and cmd/fbbbench/go.mod must both exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/cmd/fbbbench" && go build -o "$out/fbbbench" .) >&2
exec "$out/fbbbench" "$@"
