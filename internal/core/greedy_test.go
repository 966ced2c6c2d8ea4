package core

import (
	"fmt"
	"math"
	"testing"

	"podium/internal/bucketing"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/stats"
)

// paperInstance builds the running example (Table 2, Example 3.8) with the
// given schemes and budget.
func paperInstance(ws groups.WeightScheme, cs groups.CoverageScheme, budget int) *groups.Instance {
	repo := profile.PaperExample()
	ix := groups.Build(repo, Config3())
	return groups.NewInstance(ix, ws, cs, budget)
}

// Config3 is the running example's bucketing: low/medium/high at {0.4, 0.65}.
func Config3() groups.Config {
	return groups.Config{Method: bucketing.Fixed{Interior: []float64{0.4, 0.65}}, K: 3}
}

// randomInstance generates a random repository and instance for property
// and approximation tests.
func randomInstance(seed int64, nUsers, nProps int, ws groups.WeightScheme, cs groups.CoverageScheme, budget int) *groups.Instance {
	rng := stats.NewRand(seed)
	repo := profile.NewRepository()
	for u := 0; u < nUsers; u++ {
		id := repo.AddUser(fmt.Sprintf("u%d", u))
		for p := 0; p < nProps; p++ {
			if rng.Float64() < 0.5 {
				repo.MustSetScore(id, fmt.Sprintf("p%d", p), math.Round(rng.Float64()*20)/20)
			}
		}
	}
	ix := groups.Build(repo, groups.Config{K: 3})
	return groups.NewInstance(ix, ws, cs, budget)
}

func usersEqual(a, b []profile.UserID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGreedyPaperExampleLBS(t *testing.T) {
	// Example 4.3: LBS + Single, B=2 selects {Alice, Eve} with score 17.
	inst := paperInstance(groups.WeightLBS, groups.CoverSingle, 2)
	res := Greedy(inst, 2)
	if !usersEqual(res.Users, []profile.UserID{0, 4}) {
		t.Fatalf("selected %v, want [0 4] (Alice, Eve)", res.Users)
	}
	if res.Score != 17 {
		t.Fatalf("score = %v, want 17", res.Score)
	}
	// First-pick marginals from the example's walkthrough: Alice 10, then
	// Eve 7 after Alice's groups saturate. (The paper's prose lists David's
	// initial marginal as 6, but its own update arithmetic — David dropping
	// to 2 after losing the weight-2 Tokyo group and the weight-3 Mexican
	// group — confirms 7; see DESIGN.md E9.)
	if res.Marginals[0] != 10 || res.Marginals[1] != 7 {
		t.Fatalf("marginals = %v, want [10 7]", res.Marginals)
	}
	if got := inst.Score(res.Users); got != 17 {
		t.Fatalf("recomputed score = %v", got)
	}
}

func TestGreedyPaperExampleIden(t *testing.T) {
	// Example 3.8: Iden selects the eccentric Bob: {Alice, Bob}, score 11.
	inst := paperInstance(groups.WeightIden, groups.CoverSingle, 2)
	res := Greedy(inst, 2)
	if !usersEqual(res.Users, []profile.UserID{0, 1}) {
		t.Fatalf("selected %v, want [0 1] (Alice, Bob)", res.Users)
	}
	if res.Score != 11 {
		t.Fatalf("score = %v, want 11", res.Score)
	}
}

func TestGreedyEBSPaperExample(t *testing.T) {
	// Example 3.8: EBS yields the same subset as LBS (as a set — EBS ranks
	// Eve's several size-2 groups above Alice's, so the selection order
	// flips), with different scores.
	inst := paperInstance(groups.WeightEBS, groups.CoverSingle, 2)
	res := Greedy(inst, 2)
	got := map[profile.UserID]bool{}
	for _, u := range res.Users {
		got[u] = true
	}
	if len(res.Users) != 2 || !got[0] || !got[4] {
		t.Fatalf("EBS selected %v, want {Alice, Eve}", res.Users)
	}
}

func TestGreedyBudgetLargerThanPopulation(t *testing.T) {
	inst := paperInstance(groups.WeightLBS, groups.CoverSingle, 10)
	res := Greedy(inst, 10)
	if len(res.Users) != 5 {
		t.Fatalf("selected %d users, want all 5", len(res.Users))
	}
	seen := map[profile.UserID]bool{}
	for _, u := range res.Users {
		if seen[u] {
			t.Fatalf("duplicate selection %d", u)
		}
		seen[u] = true
	}
}

func TestGreedyZeroBudget(t *testing.T) {
	inst := paperInstance(groups.WeightLBS, groups.CoverSingle, 0)
	res := Greedy(inst, 0)
	if len(res.Users) != 0 || res.Score != 0 {
		t.Fatalf("zero budget selected %v", res.Users)
	}
}

func TestGreedyRestrictedMask(t *testing.T) {
	inst := paperInstance(groups.WeightLBS, groups.CoverSingle, 2)
	// Forbid Alice: the best remaining pair under LBS.
	allowed := []bool{false, true, true, true, true}
	res := GreedyRestricted(inst, 2, allowed)
	for _, u := range res.Users {
		if u == 0 {
			t.Fatal("masked user selected")
		}
	}
	if len(res.Users) != 2 {
		t.Fatalf("selected %v", res.Users)
	}
}

func TestGreedyRestrictedAllMasked(t *testing.T) {
	inst := paperInstance(groups.WeightLBS, groups.CoverSingle, 2)
	res := GreedyRestricted(inst, 2, make([]bool, 5))
	if len(res.Users) != 0 {
		t.Fatalf("selected %v from empty candidate set", res.Users)
	}
}

func TestGreedyScoreMatchesInstanceScore(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		inst := randomInstance(seed, 50, 10, groups.WeightLBS, groups.CoverProp, 6)
		res := Greedy(inst, 6)
		if got := inst.Score(res.Users); math.Abs(got-res.Score) > 1e-6 {
			t.Fatalf("seed %d: incremental score %v != recomputed %v", seed, res.Score, got)
		}
	}
}

func TestGreedyMarginalsNonIncreasing(t *testing.T) {
	// Submodularity: greedy marginals are non-increasing in selection order.
	inst := randomInstance(3, 80, 12, groups.WeightLBS, groups.CoverSingle, 10)
	res := Greedy(inst, 10)
	for i := 1; i < len(res.Marginals); i++ {
		if res.Marginals[i] > res.Marginals[i-1]+1e-9 {
			t.Fatalf("marginals increased at %d: %v", i, res.Marginals)
		}
	}
}

func TestEBSGreedyMatchesFloatWhenRepresentable(t *testing.T) {
	// With few groups, EBS float weights are exact; the bitset path must
	// agree with a float greedy run over the same weights.
	for seed := int64(0); seed < 8; seed++ {
		inst := randomInstance(seed, 20, 4, groups.WeightEBS, groups.CoverSingle, 5)
		if inst.Index.NumGroups() > 60 {
			continue // keep (B+1)^rank well inside float64
		}
		exact := Greedy(inst, 5) // routed to ebsGreedy
		// Float path: strip the EBS marker.
		floatInst := &groups.Instance{Index: inst.Index, Wei: inst.Wei, Cov: inst.Cov}
		approx := Greedy(floatInst, 5)
		if !usersEqual(exact.Users, approx.Users) {
			t.Fatalf("seed %d: exact %v vs float %v", seed, exact.Users, approx.Users)
		}
	}
}

func TestEBSGreedyLargeInstanceNoOverflowPanic(t *testing.T) {
	// Hundreds of groups: float weights are +Inf but the exact path must
	// still produce a full, duplicate-free selection.
	inst := randomInstance(2, 200, 130, groups.WeightEBS, groups.CoverSingle, 8)
	if inst.Index.NumGroups() < 320 {
		t.Fatalf("only %d groups generated — instance no longer exercises float overflow", inst.Index.NumGroups())
	}
	res := Greedy(inst, 8)
	if len(res.Users) != 8 {
		t.Fatalf("selected %d users", len(res.Users))
	}
	seen := map[profile.UserID]bool{}
	for _, u := range res.Users {
		if seen[u] {
			t.Fatal("duplicate selection")
		}
		seen[u] = true
	}
}

func TestEBSGreedyPrefersLargestGroup(t *testing.T) {
	// EBS semantics: a user covering the single largest group must beat a
	// user covering many small ones.
	repo := profile.NewRepository()
	// u0..u4 share property "big"; u5 alone has five tiny properties.
	for i := 0; i < 5; i++ {
		u := repo.AddUser(fmt.Sprintf("big%d", i))
		repo.MustSetScore(u, "big", 1)
	}
	loner := repo.AddUser("loner")
	for p := 0; p < 5; p++ {
		repo.MustSetScore(loner, fmt.Sprintf("tiny%d", p), 1)
	}
	ix := groups.Build(repo, groups.Config{K: 3})
	inst := groups.NewInstance(ix, groups.WeightEBS, groups.CoverSingle, 1)
	res := Greedy(inst, 1)
	if len(res.Users) != 1 || res.Users[0] == loner {
		t.Fatalf("EBS picked %v; covering the largest group must dominate", res.Users)
	}
}

func TestIdenPrefersEccentricUser(t *testing.T) {
	// Mirror image of the EBS test: under Iden the loner's five groups beat
	// one shared group.
	repo := profile.NewRepository()
	for i := 0; i < 5; i++ {
		u := repo.AddUser(fmt.Sprintf("big%d", i))
		repo.MustSetScore(u, "big", 1)
	}
	loner := repo.AddUser("loner")
	for p := 0; p < 5; p++ {
		repo.MustSetScore(loner, fmt.Sprintf("tiny%d", p), 1)
	}
	ix := groups.Build(repo, groups.Config{K: 3})
	inst := groups.NewInstance(ix, groups.WeightIden, groups.CoverSingle, 1)
	res := Greedy(inst, 1)
	if len(res.Users) != 1 || res.Users[0] != loner {
		t.Fatalf("Iden picked %v, want the eccentric loner", res.Users)
	}
}

func TestGreedyPropCoverageRewardsRepeats(t *testing.T) {
	// With Prop coverage a large group wants multiple representatives.
	repo := profile.NewRepository()
	for i := 0; i < 8; i++ {
		u := repo.AddUser(fmt.Sprintf("m%d", i))
		repo.MustSetScore(u, "shared", 1)
	}
	odd := repo.AddUser("odd")
	repo.MustSetScore(odd, "rare", 1)
	ix := groups.Build(repo, groups.Config{K: 3})

	single := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, 3)
	sres := Greedy(single, 3)
	// Under Single, after one "shared" member the rest add 0; the rare user
	// must appear.
	foundOdd := false
	for _, u := range sres.Users {
		if u == odd {
			foundOdd = true
		}
	}
	if !foundOdd {
		t.Fatalf("Single coverage did not pick the rare user: %v", sres.Users)
	}

	prop := groups.NewInstance(ix, groups.WeightLBS, groups.CoverProp, 3)
	pres := Greedy(prop, 3)
	// cov(shared) = max(⌊3·8/9⌋,1) = 2: two shared members outweigh the
	// rare one under LBS (8+8 > 8+1).
	shared := 0
	for _, u := range pres.Users {
		if u != odd {
			shared++
		}
	}
	if shared < 2 {
		t.Fatalf("Prop coverage selected only %d shared members: %v", shared, pres.Users)
	}
}
