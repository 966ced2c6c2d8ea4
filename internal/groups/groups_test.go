package groups

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"podium/internal/bucketing"
	"podium/internal/profile"
	"podium/internal/stats"
)

// paperIndex builds the group index for the Table 2 running example with the
// paper's hand-picked low/medium/high cuts (Example 3.8).
func paperIndex(t *testing.T) *Index {
	t.Helper()
	repo := profile.PaperExample()
	return Build(repo, Config{Method: bucketing.Fixed{Interior: []float64{0.4, 0.65}}, K: 3})
}

func groupByLabel(t *testing.T, ix *Index, label string) *Group {
	t.Helper()
	for _, g := range ix.Groups() {
		if g.Label(ix.Repo().Catalog()) == label {
			return g
		}
	}
	t.Fatalf("no group labeled %q", label)
	return nil
}

func TestBuildPaperExampleGroups(t *testing.T) {
	ix := paperIndex(t)
	// 16 non-empty groups: 4 livesIn + 1 ageGroup + 2 avgMexican +
	// 3 visitFreqMexican + 3 avgCheapEats + 3 visitFreqCheapEats.
	if got := ix.NumGroups(); got != 16 {
		t.Fatalf("NumGroups = %d, want 16", got)
	}
	// "Mexican food lovers" of Example 3.5: Alice, David, Eve.
	lovers := groupByLabel(t, ix, "high scores for avgRating Mexican")
	want := []profile.UserID{0, 3, 4}
	if len(lovers.Members) != len(want) {
		t.Fatalf("members = %v, want %v", lovers.Members, want)
	}
	for i := range want {
		if lovers.Members[i] != want[i] {
			t.Fatalf("members = %v, want %v", lovers.Members, want)
		}
	}
	// "Tokyo residents": Alice, David.
	tokyo := groupByLabel(t, ix, profile.ExLivesInTokyo)
	if tokyo.Size() != 2 || !tokyo.Contains(0) || !tokyo.Contains(3) {
		t.Fatalf("Tokyo group = %v", tokyo.Members)
	}
	if tokyo.Contains(1) {
		t.Fatal("Bob reported as Tokyo resident")
	}
}

func TestBuildGroupsPerUserCounts(t *testing.T) {
	ix := paperIndex(t)
	// Alice 6, Bob 5, Carol 4, David 3, Eve 5 (from Example 3.8's analysis).
	want := []int{6, 5, 4, 3, 5}
	for u, w := range want {
		if got := len(ix.UserGroups(profile.UserID(u))); got != w {
			t.Errorf("user %d in %d groups, want %d", u, got, w)
		}
	}
}

func TestIntersectionExample(t *testing.T) {
	// Example 3.5: Tokyo residents ∩ Mexican food lovers = {Alice, David}.
	ix := paperIndex(t)
	tokyo := groupByLabel(t, ix, profile.ExLivesInTokyo)
	lovers := groupByLabel(t, ix, "high scores for avgRating Mexican")
	got := Intersection(tokyo, lovers)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("intersection = %v, want [0 3]", got)
	}
	if got := Intersection(); got != nil {
		t.Fatalf("empty intersection = %v", got)
	}
}

func TestUnion(t *testing.T) {
	ix := paperIndex(t)
	tokyo := groupByLabel(t, ix, profile.ExLivesInTokyo)
	lovers := groupByLabel(t, ix, "high scores for avgRating Mexican")
	got := Union(tokyo, lovers)
	if len(got) != 3 { // Alice, David, Eve
		t.Fatalf("union = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("union not sorted: %v", got)
		}
	}
}

func TestLBSWeightsMatchPaperSuperscripts(t *testing.T) {
	ix := paperIndex(t)
	w := ComputeWeights(ix, WeightLBS, 2)
	// The only weight-3 group is avgRating Mexican high (Example 3.8).
	threes := 0
	for id, wi := range w {
		if wi == 3 {
			threes++
			if got := ix.Group(GroupID(id)).Label(ix.Repo().Catalog()); got != "high scores for avgRating Mexican" {
				t.Fatalf("weight-3 group is %q", got)
			}
		}
	}
	if threes != 1 {
		t.Fatalf("%d weight-3 groups, want 1", threes)
	}
}

func TestIdenWeights(t *testing.T) {
	ix := paperIndex(t)
	for _, wi := range ComputeWeights(ix, WeightIden, 2) {
		if wi != 1 {
			t.Fatalf("Iden weight = %v", wi)
		}
	}
}

func TestEBSWeightsEnforceOrder(t *testing.T) {
	ix := paperIndex(t)
	w := ComputeWeights(ix, WeightEBS, 2)
	order := ix.SizeAscOrder()
	// Along the size-ascending order, EBS weights are strictly increasing,
	// and each weight exceeds the sum of all smaller ones (the "enforced"
	// property: larger groups always dominate).
	var sumSmaller float64
	for _, id := range order {
		if w[id] <= sumSmaller {
			t.Fatalf("EBS weight %v of group %d does not dominate smaller sum %v", w[id], id, sumSmaller)
		}
		sumSmaller += w[id]
	}
}

func TestSizeAscOrderSorted(t *testing.T) {
	ix := paperIndex(t)
	order := ix.SizeAscOrder()
	if len(order) != ix.NumGroups() {
		t.Fatalf("order length %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		a, b := ix.Group(order[i-1]), ix.Group(order[i])
		if a.Size() > b.Size() {
			t.Fatal("order not ascending by size")
		}
		if a.Size() == b.Size() && order[i-1] >= order[i] {
			t.Fatal("ties not broken by group ID")
		}
	}
}

func TestCoverageSingle(t *testing.T) {
	ix := paperIndex(t)
	for _, c := range ComputeCoverage(ix, CoverSingle, 8) {
		if c != 1 {
			t.Fatalf("Single coverage = %d", c)
		}
	}
}

func TestCoverageProp(t *testing.T) {
	ix := paperIndex(t)
	cov := ComputeCoverage(ix, CoverProp, 5)
	for id, c := range cov {
		g := ix.Group(GroupID(id))
		want := 5 * g.Size() / 5 // |U| = 5
		if want < 1 {
			want = 1
		}
		if c != want {
			t.Fatalf("group %d (size %d): cov = %d, want %d", id, g.Size(), c, want)
		}
	}
	// A size-3 group with B=5 over 5 users needs 3 representatives.
	lovers := groupByLabel(t, ix, "high scores for avgRating Mexican")
	if cov[lovers.ID] != 3 {
		t.Fatalf("Prop coverage of size-3 group = %d, want 3", cov[lovers.ID])
	}
}

func TestTopKBySize(t *testing.T) {
	ix := paperIndex(t)
	top := ix.TopKBySize(3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if ix.Group(top[0]).Size() != 3 { // the lovers group is the unique largest
		t.Fatalf("largest group size = %d", ix.Group(top[0]).Size())
	}
	for i := 1; i < len(top); i++ {
		if ix.Group(top[i]).Size() > ix.Group(top[i-1]).Size() {
			t.Fatal("top-k not descending")
		}
	}
	if got := ix.TopKBySize(100); len(got) != ix.NumGroups() {
		t.Fatalf("top-100 length = %d", len(got))
	}
}

func TestMaxFactors(t *testing.T) {
	ix := paperIndex(t)
	if got := ix.MaxGroupSize(); got != 3 {
		t.Fatalf("MaxGroupSize = %d, want 3", got)
	}
	if got := ix.MaxGroupsPerUser(); got != 6 { // Alice
		t.Fatalf("MaxGroupsPerUser = %d, want 6", got)
	}
}

func TestInstanceScorePaperExample(t *testing.T) {
	ix := paperIndex(t)
	inst := NewInstance(ix, WeightLBS, CoverSingle, 2)
	// Example 3.8: {Alice, Eve} scores 17 under LBS+Single.
	if got := inst.Score([]profile.UserID{0, 4}); got != 17 {
		t.Fatalf("score({Alice,Eve}) = %v, want 17", got)
	}
	// {Alice, Bob} scores 11 under Iden (number of represented groups).
	iden := NewInstance(ix, WeightIden, CoverSingle, 2)
	if got := iden.Score([]profile.UserID{0, 1}); got != 11 {
		t.Fatalf("Iden score({Alice,Bob}) = %v, want 11", got)
	}
}

func TestInstanceScoreDeduplicates(t *testing.T) {
	ix := paperIndex(t)
	inst := NewInstance(ix, WeightLBS, CoverSingle, 2)
	a := inst.Score([]profile.UserID{0})
	b := inst.Score([]profile.UserID{0, 0})
	if a != b {
		t.Fatalf("duplicate user changed score: %v vs %v", a, b)
	}
}

func TestInstanceScoreCapsAtCoverage(t *testing.T) {
	ix := paperIndex(t)
	inst := NewInstance(ix, WeightLBS, CoverSingle, 3)
	// Alice and David are both Tokyo residents; with Single coverage the
	// second adds nothing for that group.
	tokyo := groupByLabel(t, ix, profile.ExLivesInTokyo)
	withOne := inst.Score([]profile.UserID{0})
	withBoth := inst.Score([]profile.UserID{0, 3})
	gain := withBoth - withOne
	// David's marginal: his groups minus saturated overlaps with Alice
	// (Tokyo 2 and avgRating-Mexican-high 3): 7 - 5 = 2 (Example 4.3).
	if gain != 2 {
		t.Fatalf("David's marginal after Alice = %v, want 2 (tokyo group weight %v)", gain, inst.Wei[tokyo.ID])
	}
}

func TestMaxScore(t *testing.T) {
	ix := paperIndex(t)
	inst := NewInstance(ix, WeightLBS, CoverSingle, 2)
	// Σ wei(G)·1 over all 16 groups = Σ group sizes.
	var want float64
	for _, g := range ix.Groups() {
		want += float64(g.Size())
	}
	if got := inst.MaxScore(); got != want {
		t.Fatalf("MaxScore = %v, want %v", got, want)
	}
	// No subset can exceed it.
	all := []profile.UserID{0, 1, 2, 3, 4}
	if s := inst.Score(all); s > inst.MaxScore() {
		t.Fatalf("score %v exceeds MaxScore %v", s, inst.MaxScore())
	}
}

func TestEBSInstanceHasRanks(t *testing.T) {
	ix := paperIndex(t)
	inst := NewInstance(ix, WeightEBS, CoverSingle, 2)
	if !inst.EBS || len(inst.EBSRank) != ix.NumGroups() {
		t.Fatal("EBS instance missing rank data")
	}
	seen := make([]bool, ix.NumGroups())
	for _, r := range inst.EBSRank {
		if r < 0 || r >= ix.NumGroups() || seen[r] {
			t.Fatal("EBSRank is not a permutation")
		}
		seen[r] = true
	}
	lbs := NewInstance(ix, WeightLBS, CoverSingle, 2)
	if lbs.EBS || lbs.EBSRank != nil {
		t.Fatal("non-EBS instance carries EBS rank data")
	}
}

func TestBuildMinGroupSize(t *testing.T) {
	repo := profile.PaperExample()
	ix := Build(repo, Config{Method: bucketing.Fixed{Interior: []float64{0.4, 0.65}}, K: 3, MinGroupSize: 2})
	for _, g := range ix.Groups() {
		if g.Size() < 2 {
			t.Fatalf("group of size %d survived MinGroupSize=2", g.Size())
		}
	}
	if ix.NumGroups() >= 16 {
		t.Fatal("MinGroupSize filtered nothing")
	}
}

func TestBuildSkipsEmptyBuckets(t *testing.T) {
	ix := paperIndex(t)
	// avgRating Mexican has an empty medium bucket: only 2 groups for it.
	id, _ := ix.Repo().Catalog().Lookup(profile.ExAvgMexican)
	if got := len(ix.GroupsOfProperty(id)); got != 2 {
		t.Fatalf("avgRating Mexican groups = %d, want 2", got)
	}
	// But β(p) still records all 3 buckets.
	if got := len(ix.Buckets(id)); got != 3 {
		t.Fatalf("β(avgRating Mexican) = %d buckets, want 3", got)
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	// Property: user→groups and group→members are mutual inverses on a
	// randomly generated repository.
	rng := stats.NewRand(99)
	repo := profile.NewRepository()
	for u := 0; u < 60; u++ {
		id := repo.AddUser("u")
		for p := 0; p < 12; p++ {
			if rng.Float64() < 0.5 {
				repo.MustSetScore(id, string(rune('a'+p)), math.Round(rng.Float64()*100)/100)
			}
		}
	}
	ix := Build(repo, Config{K: 3})
	for u := 0; u < repo.NumUsers(); u++ {
		for _, gid := range ix.UserGroups(profile.UserID(u)) {
			if !ix.Group(gid).Contains(profile.UserID(u)) {
				t.Fatalf("user %d listed in group %d but not a member", u, gid)
			}
		}
	}
	for _, g := range ix.Groups() {
		for _, u := range g.Members {
			found := false
			for _, gid := range ix.UserGroups(u) {
				if gid == g.ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("group %d member %d lacks back-link", g.ID, u)
			}
		}
	}
}

// Property: the score function of Definition 3.3 is monotone and submodular
// for arbitrary member sets, any weight scheme and any coverage scheme.
func TestScoreMonotoneSubmodularProperty(t *testing.T) {
	ix := paperIndex(t)
	schemes := []WeightScheme{WeightIden, WeightLBS, WeightEBS}
	covers := []CoverageScheme{CoverSingle, CoverProp}
	f := func(aBits, bBits uint8, extra uint8, wIdx, cIdx uint8) bool {
		inst := NewInstance(ix, schemes[int(wIdx)%3], covers[int(cIdx)%2], 3)
		subset := func(bits uint8) []profile.UserID {
			var us []profile.UserID
			for u := 0; u < 5; u++ {
				if bits&(1<<u) != 0 {
					us = append(us, profile.UserID(u))
				}
			}
			return us
		}
		small := subset(aBits & bBits) // U ⊆ U'
		large := subset(aBits | bBits)
		u := profile.UserID(extra % 5)
		// Monotonicity.
		if inst.Score(small) > inst.Score(large)+1e-9 {
			return false
		}
		// Submodularity: marginal gain of u shrinks as the set grows.
		gainSmall := inst.Score(append(append([]profile.UserID{}, small...), u)) - inst.Score(small)
		gainLarge := inst.Score(append(append([]profile.UserID{}, large...), u)) - inst.Score(large)
		return gainSmall >= gainLarge-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestInstanceMemos: WeightOrder lists every group by decreasing weight with
// ties in ascending ID and is sorted once; RuleBase runs its builder once
// per rule name however many goroutines ask, and shares the row.
func TestInstanceMemos(t *testing.T) {
	inst := NewInstance(paperIndex(t), WeightLBS, CoverSingle, 2)
	order := inst.WeightOrder()
	if len(order) != inst.Index.NumGroups() {
		t.Fatalf("order lists %d of %d groups", len(order), inst.Index.NumGroups())
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if inst.Wei[a] < inst.Wei[b] || (inst.Wei[a] == inst.Wei[b] && a > b) {
			t.Fatalf("order[%d..%d] = %d (weight %v), %d (weight %v)", i-1, i, a, inst.Wei[a], b, inst.Wei[b])
		}
	}
	if &inst.WeightOrder()[0] != &order[0] {
		t.Fatal("WeightOrder re-sorted on a second call")
	}

	var builds [2]atomic.Int32
	var wg sync.WaitGroup
	rows := make([][]float64, 16)
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := i % 2
			rows[i] = inst.RuleBase([]string{"a", "b"}[k], func() []float64 {
				builds[k].Add(1)
				return []float64{float64(k)}
			})
		}(i)
	}
	wg.Wait()
	if builds[0].Load() != 1 || builds[1].Load() != 1 {
		t.Fatalf("builders ran %d and %d times, want once each", builds[0].Load(), builds[1].Load())
	}
	for i, row := range rows {
		if row[0] != float64(i%2) || &row[0] != &rows[i%2][0] {
			t.Fatalf("goroutine %d got row %v, not the shared row of its rule", i, row)
		}
	}
}
