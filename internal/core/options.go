package core

import "runtime"

// Options tunes how the selection engine executes. Options change *how fast*
// a selection runs, never *what* it returns: every setting preserves
// bit-identical output — same users, same order, same marginals — as the
// sequential algorithms, so callers may tune freely without invalidating
// golden results, saved explanations, or cached selections.
type Options struct {
	// Parallelism is the worker count for the greedy loop's sharded stages:
	// the per-pick argmax and credit retraction for large groups. 0 or 1
	// runs sequentially; values above runtime.NumCPU() are allowed but
	// rarely useful. Determinism is preserved by a fixed reduction order
	// (see engine.go).
	Parallelism int

	// Timings, when non-nil, accumulates per-stage wall time for each
	// engine run (see StageTimings). The zero value (nil) costs nothing:
	// the engine's only overhead is a pointer nil-check per pick. The
	// struct is plain data — core stays free of any metrics dependency;
	// the serving layer folds the totals into its registry.
	Timings *StageTimings
}

// StageTimings is the greedy loop's per-stage clock, written by every run
// of the loop (engine.go) when Options.Timings is set — every entry point
// (plain, restricted, merge, top-up, custom, SelectorState.Select) under
// every rule. Values are monotonic nanosecond totals across however many
// runs shared the struct; Runs and Picks scale them. Not safe for
// concurrent runs — give each selection its own struct.
type StageTimings struct {
	// Runs counts engine invocations that reported into this struct. The
	// EBS exact-arithmetic path does not report (Runs stays 0 there).
	Runs int
	// Picks counts greedy picks (argmax rounds) across those runs.
	Picks int
	// InitNs is candidate-list construction plus the start row (a copy of
	// a memoized or seeded base, or a fresh rule sum) and schedule setup;
	// for a customized select it includes deriving the seed (custom.go),
	// and for a merge building its candidates' local view (engine.go).
	InitNs int64
	// ArgmaxNs is the per-pick argmax scans, including MergeNs.
	ArgmaxNs int64
	// RetractNs is the credit retraction loops (saturation, for coverage).
	RetractNs int64
	// MergeNs is the sharded argmax's final cross-shard reduction — the
	// determinism-preserving merge — counted inside ArgmaxNs.
	MergeNs int64
}

// DefaultParallel returns Options using every available CPU.
func DefaultParallel() Options { return Options{Parallelism: runtime.NumCPU()} }

// workerCount clamps Parallelism to a usable worker count.
func (o Options) workerCount() int {
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}
