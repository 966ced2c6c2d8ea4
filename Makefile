GO ?= go

.PHONY: check vet build test race bench-engine bench-campaign bench-faults bench-obs bench-scale bench-dist bench-rules

# check is the PR gate (scripts/check.sh): gofmt, vet of both modules (the
# root and perfbench/), build, full tests, the race detector over the
# concurrent packages, a 15 s fuzz run of the client's select-body decoder,
# a 10 s fuzz run of journal replay, a 10 s fuzz run of the bucket-cut
# decoder and a 10 s fuzz run of the repository decoders.
check:
	./scripts/check.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs check's race step alone; scripts/check.sh holds the package list.
race:
	./scripts/check.sh race

# bench-engine regenerates BENCH_selection.json (the selection-engine perf
# trajectory; see DESIGN.md §7).
bench-engine:
	$(GO) run ./cmd/podium-bench -suite engine

# bench-campaign regenerates BENCH_campaign.json: procurement campaigns under
# a non-response sweep — rounds/sec, repair latency, and repaired vs
# no-repair coverage (DESIGN.md §9).
bench-campaign:
	$(GO) run ./cmd/podium-bench -suite campaign

# bench-faults regenerates BENCH_faults.json: hardening overhead, read
# throughput and tail latency under 0/1/5% injected fault rates, and the
# admission-control shed rate at writer overload (DESIGN.md §10).
bench-faults:
	$(GO) run ./cmd/podium-bench -suite faults

# bench-scale regenerates BENCH_scale.json: the columnar datapath at
# 10K/100K users — select latency, snapshot clone cost, v2 image load vs
# JSON decode, and resident size (DESIGN.md §12). Set PODIUM_SCALE_1M=1 to
# include the million-user tier (several minutes; needs ~4 GB).
bench-scale:
	$(GO) run ./cmd/podium-bench -suite scale

# bench-obs regenerates BENCH_obs.json: request/engine instrumentation
# overhead with observability enabled vs disabled (DESIGN.md §11).
bench-obs:
	$(GO) run ./cmd/podium-bench -suite obs

# bench-rules regenerates BENCH_rules.json: every registered selection rule
# timed on the 10K/100K-user scale instance — per-rule latency vs the default
# coverage rule, plus each rule's coverage/fairness trade-off (DESIGN.md §16).
bench-rules:
	$(GO) run ./cmd/podium-bench -suite rules

# bench-dist regenerates BENCH_dist.json: the sharded GreeDi two-round merge
# vs single-node exact greedy at 10K/100K users × S ∈ {1,4,16} — merge
# coverage loss, shard-loss degradation, and select/plan latency
# (DESIGN.md §14) — plus the replicated HTTP tier: a coordinator over R=1 vs
# R=2 replica groups behind ~5% fault injectors, p50/p99 over the wire, and
# coverage with one replica of every shard killed (DESIGN.md §15).
bench-dist:
	$(GO) run ./cmd/podium-bench -suite dist
