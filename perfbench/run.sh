#!/usr/bin/env bash
# Builds mirabeld and the benchmark driver from this checkout's sources,
# then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload lifecycle-mem --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, both binaries, daemon data dirs and traces.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mirabeld" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/mirabeld and perfbench/)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

go build -o "$out/bin/mirabeld" ./cmd/mirabeld
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" -out "$out" -daemon "$out/bin/mirabeld" "$@"
