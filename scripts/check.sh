#!/usr/bin/env bash
# check.sh — the PR gate, runnable directly or via `make check`.
#
# Runs, in order:
#   1. gofmt -l over the whole tree (both modules); any file it lists fails
#      the gate
#   2. go vet  over every package
#   3. go vet  over the benchmark module (perfbench/ is its own module, so
#      ./... at the root skips it; this catches a core rename that would
#      otherwise fail only when the benchmark runs)
#   4. go build over every package
#   5. the full test suite
#   6. the race detector over the concurrent selection engine and the
#      delta-repaired selector state plus the pluggable rule engine's credit
#      schedules (internal/core), the shared adjacency
#      structures and their mutation change records (internal/groups), the
#      lock-free snapshot server with its watermark-keyed, rule-keyed select
#      cache (internal/server — the cache's writer-side watermark stamping vs
#      reader-side hit checks is exactly the kind of ordering bug -race
#      exists for, and concurrent requests under different selection rules
#      share the per-rule metric children and per-rule selector states
#      through sync.Map), the batched repository log (internal/repolog), the
#      campaign orchestrator (internal/campaign), the resilient client
#      (internal/client), the fault injector + chaos suite
#      (internal/faults), the metrics/trace registry (internal/obs), the
#      binary codec + snapshot image (internal/codec), the columnar
#      repository with its copy-on-write overlay (internal/profile) and the
#      sharded selection subsystem — concurrent round-1 shard greedies, the
#      coordinator's fan-out/merge, and the replica health registry with its
#      hedged router (probe loop, passive outcome notes and hedge
#      cancellation all race against routing decisions) (internal/shard)
#   7. a bounded fuzz run (15 s) of the client's direct select-body decoder
#      (FuzzDecodeSelection in internal/client) against json.Unmarshal.
#      -fuzzminimizetime 100x caps the shrinking of each new input: unbounded,
#      the run spends its 15 s minimizing the first input it derives from a
#      multi-kilobyte body seed and executes only a few hundred inputs
#   8. a bounded fuzz run (10 s) of journal replay (FuzzOpen in
#      internal/durable): arbitrary bytes after a valid header must open
#      without a panic, and the file Open leaves must reopen to the same
#      records with nothing more recovered
#   9. a bounded fuzz run (10 s) of the bucket-cut decoder (FuzzReadBuckets
#      in internal/codec), which decodes the repository log's boundaries
#      records on every mutable server start: payloads framed by a valid
#      header and checksum must decode without a panic, and cuts it accepts
#      must re-encode and decode equal
#  10. a bounded fuzz run (10 s) of the repository decoders
#      (FuzzReadRepository in internal/codec): arbitrary bytes through the
#      v1 stream reader and the v2 image decoder every image load runs must
#      fail cleanly or yield a fully valid repository that round-trips
#
# `./scripts/check.sh race` (what `make race` runs) runs step 6 alone; the
# package list below is the only copy.
set -euo pipefail
cd "$(dirname "$0")/.."

race_pkgs=(./internal/core ./internal/groups ./internal/server ./internal/repolog ./internal/campaign ./internal/client ./internal/faults ./internal/obs ./internal/codec ./internal/profile ./internal/shard)

race() {
	echo "== go test -race ${race_pkgs[*]}"
	go test -race "${race_pkgs[@]}"
}

if [[ "${1:-}" == race ]]; then
	race
	exit
fi

echo "== gofmt -l ."
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
	echo "gofmt: these files are not formatted (run gofmt -w):" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go -C perfbench vet ./..."
go -C perfbench vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

race

echo "== go test -fuzz FuzzDecodeSelection ./internal/client"
go test -run '^$' -fuzz '^FuzzDecodeSelection$' -fuzztime 15s -fuzzminimizetime 100x ./internal/client

echo "== go test -fuzz FuzzOpen ./internal/durable"
go test -run '^$' -fuzz '^FuzzOpen$' -fuzztime 10s -fuzzminimizetime 100x ./internal/durable

echo "== go test -fuzz FuzzReadBuckets ./internal/codec"
go test -run '^$' -fuzz '^FuzzReadBuckets$' -fuzztime 10s -fuzzminimizetime 100x ./internal/codec

echo "== go test -fuzz FuzzReadRepository ./internal/codec"
go test -run '^$' -fuzz '^FuzzReadRepository$' -fuzztime 10s -fuzzminimizetime 100x ./internal/codec

echo "check: all green"
