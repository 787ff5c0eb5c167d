#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. Run
# from the repository root:
#
#   bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every other file the toolchain or the
# benchmark writes stay under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
