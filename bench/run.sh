#!/usr/bin/env bash
# Builds pbtree-server and the benchmark from this checkout's sources
# into .bench_build, then runs the benchmark with the given arguments:
#
#   bash bench/run.sh --workload point-seq --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, module path,
# temporary files and toolchain config stay inside .bench_build, so a
# run writes nowhere else.
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/pbtree-server ]]; then
	echo "bench: run from a pbtree checkout's root (no go.mod or cmd/pbtree-server here)" >&2
	exit 2
fi
out="$root/.bench_build"
# Telemetry is turned off: in a fresh config directory the go command
# would otherwise fork a detached sidecar process that outlives it.
mkdir -p "$out/gocache" "$out/gotmp" "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local
go build -o "$out/pbtree-server" ./cmd/pbtree-server
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" --server "$out/pbtree-server" --out "$out" "$@"
