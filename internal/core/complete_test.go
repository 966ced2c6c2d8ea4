package core

import (
	"math"
	"testing"

	"podium/internal/groups"
	"podium/internal/profile"
)

// greedyComplete is GreedyCompleteRule under the default rule.
func greedyComplete(t *testing.T, inst *groups.Instance, budget int, have []profile.UserID, allowed []bool) *Result {
	t.Helper()
	res, err := GreedyCompleteRule(inst, budget, have, allowed, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGreedyCompleteEmptyPanelIsGreedy(t *testing.T) {
	inst := randomInstance(11, 120, 12, groups.WeightLBS, groups.CoverSingle, 6)
	want := Greedy(inst, 6)
	got := greedyComplete(t, inst, 6, nil, nil)
	if !usersEqual(want.Users, got.Users) || want.Score != got.Score {
		t.Fatalf("GreedyCompleteRule(∅) diverges from Greedy: %v vs %v", got.Users, want.Users)
	}
}

func TestGreedyCompleteResumesAlgorithmOne(t *testing.T) {
	// Completing the first i picks of a greedy run must reproduce the
	// remaining picks exactly: the advanced schedules make GreedyCompleteRule
	// a resumption of Algorithm 1 from the partial selection.
	inst := randomInstance(23, 150, 10, groups.WeightLBS, groups.CoverSingle, 8)
	full := Greedy(inst, 8)
	for i := 1; i < len(full.Users); i++ {
		rest := greedyComplete(t, inst, 8-i, full.Users[:i], nil)
		if !usersEqual(rest.Users, full.Users[i:]) {
			t.Fatalf("resuming after %d picks selected %v, want %v", i, rest.Users, full.Users[i:])
		}
	}
}

func TestGreedyCompleteMarginalsAreTrueMarginals(t *testing.T) {
	inst := randomInstance(31, 140, 10, groups.WeightLBS, groups.CoverProp, 8)
	have := []profile.UserID{3, 17, 42, 17} // duplicate counted once
	res := greedyComplete(t, inst, 4, have, nil)
	var marg float64
	for _, m := range res.Marginals {
		marg += m
	}
	base := inst.Score([]profile.UserID{3, 17, 42})
	got := inst.Score(append([]profile.UserID{3, 17, 42}, res.Users...))
	if math.Abs((got-base)-marg) > 1e-9 {
		t.Fatalf("marginals sum %.12f, want Score delta %.12f", marg, got-base)
	}
}

func TestGreedyCompleteExcludesPanelAndDisallowed(t *testing.T) {
	inst := randomInstance(47, 100, 8, groups.WeightLBS, groups.CoverSingle, 8)
	n := inst.Index.Repo().NumUsers()
	allowed := make([]bool, n)
	for u := 0; u < n; u++ {
		allowed[u] = u%2 == 0 // odd users are "dead"
	}
	have := []profile.UserID{0, 2, 4}
	res := greedyComplete(t, inst, 5, have, allowed)
	inHave := map[profile.UserID]bool{0: true, 2: true, 4: true}
	for _, u := range res.Users {
		if inHave[u] {
			t.Fatalf("re-selected existing panel member %d", u)
		}
		if u%2 == 1 {
			t.Fatalf("selected disallowed user %d", u)
		}
	}
}

func TestGreedyCompleteEBSPath(t *testing.T) {
	inst := randomInstance(53, 90, 8, groups.WeightEBS, groups.CoverSingle, 6)
	full := Greedy(inst, 6)
	if len(full.Users) < 4 {
		t.Skip("instance too small for a meaningful split")
	}
	rest := greedyComplete(t, inst, len(full.Users)-2, full.Users[:2], nil)
	if !usersEqual(rest.Users, full.Users[2:]) {
		t.Fatalf("EBS completion selected %v, want %v", rest.Users, full.Users[2:])
	}
}
