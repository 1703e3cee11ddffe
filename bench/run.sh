#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, for example
#
#   bash bench/run.sh --workload fig7-rtn --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare bench/results/a.json -- bench/results/b.json
#
# The binary, the Go build cache, the go command's own state (GOPATH and
# its config directory, where it keeps telemetry counters) and every scratch
# file (journals, spans) stay under $CARGO_TARGET_DIR, by default
# .bench_build at the repository root. See bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "bench/run.sh: not a full checkout of the repository (go.mod or internal/ missing)" >&2
	exit 1
fi
work="${CARGO_TARGET_DIR:-.bench_build}"
out="$work"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;; # the go command wants absolute paths
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/bench" .)
if [[ "${1:-}" == compare ]]; then
	exec "$out/bench" "$@"
fi
exec "$out/bench" -work "$work" "$@"
