package core

import (
	"testing"

	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/stats"
)

// forceShardedPaths lowers the engine's parallel cutoff so the sharded loops
// run even on property-test-sized instances, restoring it on cleanup.
func forceShardedPaths(t *testing.T) {
	t.Helper()
	saved := engineParallelCutoff
	engineParallelCutoff = 1
	t.Cleanup(func() { engineParallelCutoff = saved })
}

// resultsIdentical requires bit-identical results: same users in the same
// order, the exact same marginal floats, and the exact same score.
func resultsIdentical(a, b *Result) bool {
	if len(a.Users) != len(b.Users) || a.Score != b.Score {
		return false
	}
	for i := range a.Users {
		if a.Users[i] != b.Users[i] || a.Marginals[i] != b.Marginals[i] {
			return false
		}
	}
	return true
}

// TestEngineEquivalenceProperty holds the greedy loop to the pre-engine
// implementation across 50 random instances: varying seeds, all three weight
// schemes, both coverage schemes, and nil/dense/sparse allowed masks. At
// every Parallelism in {1, 2, 8} the engine must reproduce ReferenceGreedy's
// Result — users, order, marginals, score — bit for bit.
func TestEngineEquivalenceProperty(t *testing.T) {
	forceShardedPaths(t)
	weightSchemes := []groups.WeightScheme{groups.WeightIden, groups.WeightLBS, groups.WeightEBS}
	coverSchemes := []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp}
	for i := 0; i < 50; i++ {
		seed := int64(i)
		ws := weightSchemes[i%len(weightSchemes)]
		cs := coverSchemes[(i/3)%len(coverSchemes)]
		rng := stats.NewRand(1000 + seed)
		nUsers := 20 + rng.Intn(100)
		nProps := 3 + rng.Intn(10)
		budget := 1 + rng.Intn(12)
		inst := randomInstance(seed, nUsers, nProps, ws, cs, budget)
		n := inst.Index.Repo().NumUsers()

		// Mask variants cycle: unrestricted, dense (~50%), sparse (~10%) —
		// the last exercises the compacted-candidate path on a small 𝒰′.
		var allowed []bool
		switch i % 3 {
		case 1, 2:
			p := 0.5
			if i%3 == 2 {
				p = 0.1
			}
			allowed = make([]bool, n)
			for u := range allowed {
				allowed[u] = rng.Float64() < p
			}
		}

		want := ReferenceGreedy(inst, budget, allowed)
		for _, par := range []int{1, 2, 8} {
			got := GreedyRestrictedOpts(inst, budget, allowed, Options{Parallelism: par})
			if !resultsIdentical(want, got) {
				t.Fatalf("instance %d (ws=%v cs=%v n=%d B=%d mask=%d) parallelism=%d:\nreference users=%v marginals=%v score=%v\nengine    users=%v marginals=%v score=%v",
					i, ws, cs, n, budget, i%3, par,
					want.Users, want.Marginals, want.Score,
					got.Users, got.Marginals, got.Score)
			}
		}
	}
}

// TestEngineEquivalenceCustomPath runs the same equivalence through
// GreedyCustomOpts, whose refined 𝒰′ and tiered weights are the motivating
// workload for the compacted candidate list.
func TestEngineEquivalenceCustomPath(t *testing.T) {
	forceShardedPaths(t)
	for seed := int64(0); seed < 8; seed++ {
		inst := randomInstance(seed, 60, 8, groups.WeightLBS, groups.CoverSingle, 6)
		ng := inst.Index.NumGroups()
		rng := stats.NewRand(2000 + seed)
		var fb Feedback
		for g := 0; g < ng; g++ {
			switch {
			case rng.Float64() < 0.1:
				fb.Priority = append(fb.Priority, groups.GroupID(g))
			case rng.Float64() < 0.05:
				fb.MustNot = append(fb.MustNot, groups.GroupID(g))
			}
		}
		allowed := RefineUsers(inst.Index, fb)
		tiered := CustomInstance(inst, fb)
		want := ReferenceGreedy(tiered, 6, allowed)
		for _, par := range []int{1, 2, 8} {
			got, err := GreedyCustomOpts(inst, fb, 6, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !resultsIdentical(want, got.Result) {
				t.Fatalf("seed %d parallelism=%d: custom engine diverged from reference\nwant %v %v\ngot  %v %v",
					seed, par, want.Users, want.Marginals, got.Users, got.Marginals)
			}
		}
	}
}

// TestEveryEntryPointReportsStages: every entry point runs the one greedy
// loop, so each writes StageTimings when asked — under every rule, on the
// seeded SelectorState path included.
func TestEveryEntryPointReportsStages(t *testing.T) {
	inst := randomInstance(17, 120, 10, groups.WeightLBS, groups.CoverSingle, 6)
	for _, r := range Rules() {
		st := NewSelectorStateRule(r)
		st.Sync(inst, nil, true)
		for name, run := range map[string]func(Options) (*Result, error){
			"rule": func(o Options) (*Result, error) { return GreedyRule(inst, 6, r, o) },
			"merge": func(o Options) (*Result, error) {
				return MergeGreedyRule(inst, []profile.UserID{1, 5, 9, 30, 44, 70}, 6, r, o)
			},
			"complete": func(o Options) (*Result, error) {
				return GreedyCompleteRule(inst, 4, []profile.UserID{2, 3}, nil, r, o)
			},
			"selector": func(o Options) (*Result, error) { return st.Select(inst, 6, o), nil },
		} {
			var tim StageTimings
			if _, err := run(Options{Timings: &tim}); err != nil {
				t.Fatal(err)
			}
			if tim.Runs != 1 || tim.Picks == 0 {
				t.Errorf("rule %s %s: stage timings %+v, want one run with picks", r.Name(), name, tim)
			}
		}
	}
	var tim StageTimings
	if _, err := GreedyCustomOpts(inst, Feedback{Priority: []groups.GroupID{0}}, 6, Options{Timings: &tim}); err != nil {
		t.Fatal(err)
	}
	if tim.Runs != 1 || tim.Picks == 0 {
		t.Errorf("custom: stage timings %+v, want one run with picks", tim)
	}
}
