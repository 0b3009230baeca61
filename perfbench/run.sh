#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-scale --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# traces of traced runs go to $CARGO_TARGET_DIR (default .bench_build); a
# relative value is taken from the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
if [[ "$out" != /* ]]; then
	out="$(pwd)/$out"
fi
if [[ ! -f "$here/../go.mod" ]]; then
	echo "perfbench: no Go module above $here; the benchmark needs the repository's source" >&2
	exit 3
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
