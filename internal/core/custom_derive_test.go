package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/synth"
)

// refineUsersOracle is RefineUsers as Definition 6.3 reads: for every user,
// probe each 𝒢₊ property's listed groups by binary search. RefineUsers walks
// member lists instead and is held to this.
func refineUsersOracle(ix *groups.Index, fb Feedback) []bool {
	n := ix.Repo().NumUsers()
	allowed := make([]bool, n)
	for u := range allowed {
		allowed[u] = true
	}
	havePerProp := map[profile.PropertyID][]groups.GroupID{}
	for _, id := range fb.MustHave {
		g := ix.Group(id)
		havePerProp[g.Prop] = append(havePerProp[g.Prop], id)
	}
	for u := 0; u < n; u++ {
		uid := profile.UserID(u)
		for _, ids := range havePerProp {
			ok := false
			for _, id := range ids {
				if ix.Group(id).Contains(uid) {
					ok = true
					break
				}
			}
			if !ok {
				allowed[u] = false
				break
			}
		}
	}
	for _, id := range fb.MustNot {
		for _, member := range ix.Group(id).Members {
			allowed[member] = false
		}
	}
	return allowed
}

// customIndex is a random ScaleLike index with intersection, union and
// manual groups, users indexed after the build, and bucket-moving score
// rewrites.
func customIndex(t *testing.T, seed int64) *groups.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := synth.ScaleLike(150 + rng.Intn(250))
	cfg.Seed = seed
	repo := synth.Generate(cfg).Repo
	ix := groups.Build(repo, groups.Config{K: 2 + rng.Intn(3)})
	nG := ix.NumGroups()
	for i := 0; i < 6; i++ {
		a, b := groups.GroupID(rng.Intn(nG)), groups.GroupID(rng.Intn(nG))
		if i%2 == 0 {
			ix.AddIntersection(a, b) // an empty intersection is refused; fine
		} else {
			ix.AddUnion(a, b)
		}
	}
	n := repo.NumUsers()
	var manual []profile.UserID
	for i := 0; i < 1+rng.Intn(20); i++ {
		manual = append(manual, profile.UserID(rng.Intn(n)))
	}
	if _, err := ix.AddManualGroup(fmt.Sprintf("manual %d", seed), manual); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		u := repo.AddUser(fmt.Sprintf("late-%d", i))
		for _, v := range []int{rng.Intn(n), rng.Intn(n)} {
			repo.Profile(profile.UserID(v)).Each(func(p profile.PropertyID, s float64) {
				if err := repo.SetScoreID(u, p, s); err != nil {
					t.Fatal(err)
				}
			})
		}
		if _, err := ix.IndexUser(u); err != nil {
			t.Fatal(err)
		}
	}
	// A user takes another holder's score on one property, which may move
	// it to another bucket.
	for i := 0; i < 40; i++ {
		u := profile.UserID(rng.Intn(repo.NumUsers()))
		props := repo.Profile(u).Properties()
		if len(props) == 0 {
			continue
		}
		p := props[rng.Intn(len(props))]
		holders, scores := repo.PropertyValues(p)
		j := rng.Intn(len(holders))
		if holders[j] == u {
			continue
		}
		if err := repo.SetScoreID(u, p, scores[j]); err != nil {
			t.Fatal(err)
		}
		if err := ix.UpdateScore(u, p); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// randomFeedback draws must_have groups over up to three properties — at
// times two buckets of one property, at times a group listed twice — must_not
// and priority groups, and half the time an explicit standard set.
func randomFeedback(rng *rand.Rand, ix *groups.Index) Feedback {
	nG := ix.NumGroups()
	pick := func() groups.GroupID { return groups.GroupID(rng.Intn(nG)) }
	var fb Feedback
	for i := rng.Intn(4); i > 0; i-- {
		id := pick()
		fb.MustHave = append(fb.MustHave, id)
		if g := ix.Group(id); g.Kind == groups.SimpleGroup && rng.Intn(2) == 0 {
			fb.MustHave = append(fb.MustHave, ix.GroupsOfProperty(g.Prop)...)
		}
		if rng.Intn(3) == 0 {
			fb.MustHave = append(fb.MustHave, id)
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		fb.MustNot = append(fb.MustNot, pick())
	}
	for i := rng.Intn(4); i > 0; i-- {
		fb.Priority = append(fb.Priority, pick())
	}
	if rng.Intn(2) == 0 {
		fb.StandardExplicit = true
		for i := rng.Intn(nG / 2); i > 0; i-- {
			fb.Standard = append(fb.Standard, pick())
		}
	}
	return fb
}

// zeroSomeCov is inst with about a fifth of its groups' coverage set to zero,
// the shape of a residual instance after a partial panel.
func zeroSomeCov(rng *rand.Rand, inst *groups.Instance) *groups.Instance {
	cov := append([]int(nil), inst.Cov...)
	for g := range cov {
		if rng.Intn(5) == 0 {
			cov[g] = 0
		}
	}
	return &groups.Instance{Index: inst.Index, Wei: inst.Wei, Cov: cov}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTieredBaseMatchesFreshSum: the tiered start row derived from the base
// row equals the tiered instance's own fresh sum bit for bit, leaves the
// shared base row untouched, and the customized greedy equals the reference
// greedy on the tiered instance restricted by the oracle's mask.
func TestTieredBaseMatchesFreshSum(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		ix := customIndex(t, seed)
		rng := rand.New(rand.NewSource(100 + seed))
		for _, ws := range []groups.WeightScheme{groups.WeightIden, groups.WeightLBS} {
			for _, cs := range []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp} {
				budget := 1 + rng.Intn(12)
				std := groups.NewInstance(ix, ws, cs, budget)
				for _, base := range []*groups.Instance{std, zeroSomeCov(rng, std)} {
					before := append([]float64(nil), base.BaseMarginals()...)
					for i := 0; i < 8; i++ {
						fb := randomFeedback(rng, ix)
						what := fmt.Sprintf("seed %d %s/%s feedback %+v", seed, ws, cs, fb)
						tiered := CustomInstance(base, fb)
						row := tieredBase(base, tiered)
						if row == nil {
							t.Fatalf("%s: integer weights fell back to the fresh sum", what)
						}
						if !sameBits(row, tiered.BaseMarginals()) {
							t.Fatalf("%s: derived start row differs from the fresh sum", what)
						}
						if !sameBits(base.BaseMarginals(), before) {
							t.Fatalf("%s: deriving wrote into the shared base row", what)
						}
						got, err := GreedyCustomOpts(base, fb, budget, Options{Parallelism: i % 3})
						if err != nil {
							t.Fatal(err)
						}
						want := ReferenceGreedy(tiered, budget, refineUsersOracle(ix, fb))
						if !resultsIdentical(want, got.Result) {
							t.Fatalf("%s: customized greedy %v %v, reference %v %v", what, got.Users, got.Marginals, want.Users, want.Marginals)
						}
					}
				}
			}
		}
	}
}

// TestTieredBaseGate: weights the derivation cannot reproduce exactly take
// the fresh sum, and the customized greedy still equals the reference.
func TestTieredBaseGate(t *testing.T) {
	cfg := synth.YelpLike(60)
	cfg.Seed = 3
	ix := groups.Build(synth.Generate(cfg).Repo, groups.Config{K: 3})
	lbs := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, 4)
	withWei := func(f func(g int) float64) *groups.Instance {
		wei := make([]float64, ix.NumGroups())
		for g := range wei {
			wei[g] = f(g)
		}
		return &groups.Instance{Index: ix, Wei: wei, Cov: lbs.Cov}
	}
	// Feedback{} tiers nothing: tiered weights equal the base weights, so the
	// gate's total is twice the base total.
	half := float64(1 << 51)
	perGroup := math.Floor(half / float64(ix.NumGroups()))
	below := withWei(func(g int) float64 {
		if g == 0 {
			return half - perGroup*float64(ix.NumGroups()-1) - 1
		}
		return perGroup
	})
	reach := withWei(func(g int) float64 {
		if g == 0 {
			return half - perGroup*float64(ix.NumGroups()-1)
		}
		return perGroup
	})
	prio := Feedback{Priority: []groups.GroupID{1, 7}, MustNot: []groups.GroupID{2}}
	for _, tc := range []struct {
		name string
		base *groups.Instance
		fb   Feedback
		fall bool
	}{
		{"tiered EBS", groups.NewInstance(ix, groups.WeightEBS, groups.CoverSingle, 4), prio, true},
		{"non-integer weights", withWei(func(g int) float64 { return 1 + float64(g%7)/8 }), prio, true},
		{"negative weight", withWei(func(g int) float64 { return float64(g%5 - 1) }), Feedback{}, true},
		{"total reaches 2^52", reach, Feedback{}, true},
		{"total just below 2^52", below, Feedback{}, false},
		{"LBS", lbs, prio, false},
	} {
		tiered := CustomInstance(tc.base, tc.fb)
		row := tieredBase(tc.base, tiered)
		if fell := row == nil; fell != tc.fall {
			t.Fatalf("%s: fell back to the fresh sum = %v, want %v", tc.name, fell, tc.fall)
		}
		if row != nil && !sameBits(row, tiered.BaseMarginals()) {
			t.Fatalf("%s: derived start row differs from the fresh sum", tc.name)
		}
		got, err := GreedyCustomOpts(tc.base, tc.fb, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := ReferenceGreedy(tiered, 4, refineUsersOracle(ix, tc.fb)); !resultsIdentical(want, got.Result) {
			t.Fatalf("%s: customized greedy %v, reference %v", tc.name, got.Users, want.Users)
		}
	}
}

// TestRefineUsersMatchesOracle covers groups listed twice, several buckets of
// one property and complex groups.
func TestRefineUsersMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		ix := customIndex(t, seed)
		rng := rand.New(rand.NewSource(200 + seed))
		for i := 0; i < 40; i++ {
			fb := randomFeedback(rng, ix)
			got, want := RefineUsers(ix, fb), refineUsersOracle(ix, fb)
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("seed %d feedback %+v: user %d allowed = %v, oracle %v", seed, fb, u, got[u], want[u])
				}
			}
		}
	}
}

// TestGreedyCustomConcurrentSharedBase: concurrent customized selects on one
// fresh base instance share its lazily built base row and must each return
// what a sequential run returns.
func TestGreedyCustomConcurrentSharedBase(t *testing.T) {
	ix := customIndex(t, 9)
	rng := rand.New(rand.NewSource(9))
	fbs := make([]Feedback, 8)
	for i := range fbs {
		fbs[i] = randomFeedback(rng, ix)
	}
	want := make([]*CustomResult, len(fbs))
	for i, fb := range fbs {
		var err error
		if want[i], err = GreedyCustomOpts(groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, 6), fb, 6, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	shared := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, 6)
	got := make([]*CustomResult, len(fbs))
	var wg sync.WaitGroup
	for i, fb := range fbs {
		wg.Add(1)
		go func(i int, fb Feedback) {
			defer wg.Done()
			var err error
			if got[i], err = GreedyCustomOpts(shared, fb, 6, Options{Parallelism: i % 3}); err != nil {
				t.Error(err)
			}
		}(i, fb)
	}
	wg.Wait()
	for i := range fbs {
		if got[i] == nil || !resultsIdentical(want[i].Result, got[i].Result) ||
			got[i].PriorityScore != want[i].PriorityScore || got[i].StandardScore != want[i].StandardScore {
			t.Fatalf("feedback %d: concurrent run differs from the sequential one", i)
		}
	}
}

// TestScoresIgnoreMapOrder: with EBS weights finite but far above 2^53 the
// score sums are inexact, so they must run in a fixed (ascending group)
// order to give the same bits on every call.
func TestScoresIgnoreMapOrder(t *testing.T) {
	cfg := synth.YelpLike(60)
	cfg.Seed = 3
	ix := groups.Build(synth.Generate(cfg).Repo, groups.Config{K: 3})
	inst := groups.NewInstance(ix, groups.WeightEBS, groups.CoverSingle, 6)
	panel := Greedy(inst, 6).Users
	fb := Feedback{Priority: []groups.GroupID{0, 5}}
	first, err := GreedyCustomOpts(inst, fb, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	score, tiered := inst.Score(panel), CustomInstance(inst, fb)
	if math.IsInf(score, 0) || math.IsInf(first.StandardScore, 0) || score < 1<<60 {
		t.Fatalf("score %v, standard %v: want finite sums far above 2^53", score, first.StandardScore)
	}
	for i := 0; i < 200; i++ {
		if s := inst.Score(panel); math.Float64bits(s) != math.Float64bits(score) {
			t.Fatalf("call %d: Score %v, first call %v", i, s, score)
		}
		again, err := GreedyCustomOpts(inst, fb, 6, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(again.StandardScore) != math.Float64bits(first.StandardScore) ||
			math.Float64bits(again.PriorityScore) != math.Float64bits(first.PriorityScore) {
			t.Fatalf("call %d: tier scores %v/%v, first call %v/%v", i, again.PriorityScore, again.StandardScore, first.PriorityScore, first.StandardScore)
		}
		if !sameBits(CustomInstance(inst, fb).Wei, tiered.Wei) {
			t.Fatalf("call %d: tiered weights differ from the first call's", i)
		}
	}
}
