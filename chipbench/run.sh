#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash chipbench/run.sh --workload corpus_light --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/chipbench/go.mod" ]; then
	echo "chipbench: run from the repository root (needs go.mod and chipbench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
(cd "$root/chipbench" && go build -o "$out/chipbench" .) >&2
exec "$out/chipbench" "$@"
