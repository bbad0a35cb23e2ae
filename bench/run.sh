#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload solve-edge-zoo --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, the go command's configuration and telemetry
# directory and temporary files stay under .bench_build/ at the repository
# root, so a run writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
