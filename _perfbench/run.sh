#!/usr/bin/env bash
# Builds the benchmark against the enclosing checkout and runs it:
#
#   bash _perfbench/run.sh --workload vip-w1 --seed 7 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# checkout root. Without the repository's sources next to this directory
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root; the benchmark needs the repository sources" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/perfbench"
go -C "$here" build -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" --state "$out/perfbench" "$@"
