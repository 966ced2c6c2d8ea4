#!/usr/bin/env bash
# Builds podium-server and the benchmark from this checkout into
# .bench_build/, then runs one workload:
#
#   bash perfbench/run.sh --workload refine|live|cluster --seed N --seconds S --trace 0|1
#
# Run it from the checkout root. Everything it builds, generates or caches,
# the Go build cache included, stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/podium-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a Podium checkout (go.mod, cmd/podium-server, perfbench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

go build -o "$build/bin/podium-server" ./cmd/podium-server
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" -work "$build" -server "$build/bin/podium-server" "$@"
