package baselines

import (
	"fmt"
	"math"
	"testing"

	"podium/internal/bucketing"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/stats"
)

func paperIndex(t *testing.T) *groups.Index {
	t.Helper()
	repo := profile.PaperExample()
	return groups.Build(repo, groups.Config{Method: bucketing.Fixed{Interior: []float64{0.4, 0.65}}, K: 3})
}

// clusteredIndex builds a repository with four obvious user communities for
// clustering tests.
func clusteredIndex(t *testing.T, perCluster int) *groups.Index {
	t.Helper()
	rng := stats.NewRand(5)
	repo := profile.NewRepository()
	for c := 0; c < 4; c++ {
		for i := 0; i < perCluster; i++ {
			u := repo.AddUser(fmt.Sprintf("c%d-%d", c, i))
			// Each community has its own pair of signature properties.
			repo.MustSetScore(u, fmt.Sprintf("sig%d-a", c), stats.Clamp(0.8+0.05*rng.NormFloat64(), 0, 1))
			repo.MustSetScore(u, fmt.Sprintf("sig%d-b", c), stats.Clamp(0.7+0.05*rng.NormFloat64(), 0, 1))
			repo.MustSetScore(u, "shared", stats.Clamp(0.5+0.05*rng.NormFloat64(), 0, 1))
		}
	}
	return groups.Build(repo, groups.Config{K: 3})
}

func assertValidSelection(t *testing.T, name string, users []profile.UserID, n, budget int) {
	t.Helper()
	if len(users) > budget {
		t.Fatalf("%s selected %d users for budget %d", name, len(users), budget)
	}
	seen := map[profile.UserID]bool{}
	for _, u := range users {
		if int(u) < 0 || int(u) >= n {
			t.Fatalf("%s selected out-of-range user %d", name, u)
		}
		if seen[u] {
			t.Fatalf("%s selected user %d twice", name, u)
		}
		seen[u] = true
	}
}

func TestAllSelectorsBasicContract(t *testing.T) {
	ix := clusteredIndex(t, 12)
	n := ix.Repo().NumUsers()
	selectors := []Selector{
		Podium{Weights: groups.WeightLBS, Coverage: groups.CoverSingle},
		Random{Seed: 1},
		Clustering{Seed: 1},
		Distance{},
	}
	for _, s := range selectors {
		for _, budget := range []int{0, 1, 4, 7, n, n + 5} {
			users := s.Select(ix, budget)
			assertValidSelection(t, s.Name(), users, n, budget)
			if budget >= 1 && budget <= n && len(users) != budget && s.Name() != "Clustering" {
				t.Fatalf("%s returned %d users for feasible budget %d", s.Name(), len(users), budget)
			}
			// Clustering may fall short only if padding failed, which it
			// should not for feasible budgets.
			if s.Name() == "Clustering" && budget <= n && len(users) != min(budget, n) {
				t.Fatalf("Clustering returned %d users for budget %d", len(users), budget)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	ix := paperIndex(t)
	a := Random{Seed: 42}.Select(ix, 3)
	b := Random{Seed: 42}.Select(ix, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different selections")
		}
	}
	c := Random{Seed: 43}.Select(ix, 3)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

func TestRandomUniformity(t *testing.T) {
	ix := paperIndex(t)
	counts := make([]int, 5)
	for seed := int64(0); seed < 2000; seed++ {
		for _, u := range (Random{Seed: seed}).Select(ix, 2) {
			counts[u]++
		}
	}
	// Each user should appear in about 2/5 of 2000 = 800 selections.
	for u, c := range counts {
		if c < 700 || c > 900 {
			t.Fatalf("user %d selected %d times, want ~800", u, c)
		}
	}
}

func TestClusteringFindsCommunities(t *testing.T) {
	ix := clusteredIndex(t, 15)
	users := Clustering{Seed: 3}.Select(ix, 4)
	if len(users) != 4 {
		t.Fatalf("selected %v", users)
	}
	// With four well-separated communities of 15 users each, a correct
	// k-means should pick one representative per community.
	communities := map[int]bool{}
	for _, u := range users {
		communities[int(u)/15] = true
	}
	if len(communities) != 4 {
		t.Fatalf("representatives cover %d communities, want 4 (users %v)", len(communities), users)
	}
}

func TestClusteringRepresentativeIsNearMean(t *testing.T) {
	// The representative must be a member of the population, not a centroid.
	ix := clusteredIndex(t, 10)
	users := Clustering{Seed: 7}.Select(ix, 4)
	for _, u := range users {
		if int(u) < 0 || int(u) >= ix.Repo().NumUsers() {
			t.Fatalf("non-user representative %d", u)
		}
	}
}

func TestDistanceAvoidsOverlap(t *testing.T) {
	// Two groups of near-identical users plus one loner with disjoint
	// properties: max-sum Jaccard must include the loner by its second pick.
	repo := profile.NewRepository()
	for i := 0; i < 5; i++ {
		u := repo.AddUser(fmt.Sprintf("a%d", i))
		repo.MustSetScore(u, "p1", 0.9)
		repo.MustSetScore(u, "p2", 0.8)
		repo.MustSetScore(u, "p3", 0.7)
	}
	loner := repo.AddUser("loner")
	repo.MustSetScore(loner, "q1", 0.5)
	ix := groups.Build(repo, groups.Config{K: 3})
	users := Distance{}.Select(ix, 2)
	found := false
	for _, u := range users {
		if u == loner {
			found = true
		}
	}
	if !found {
		t.Fatalf("distance-based selection %v missed the disjoint loner", users)
	}
}

func TestDistanceDeterministic(t *testing.T) {
	ix := clusteredIndex(t, 10)
	a := Distance{}.Select(ix, 5)
	b := Distance{}.Select(ix, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("distance baseline not deterministic")
		}
	}
}

func TestJaccardDistance(t *testing.T) {
	repo := profile.NewRepository()
	a := repo.AddUser("a")
	b := repo.AddUser("b")
	c := repo.AddUser("c")
	d := repo.AddUser("d")
	repo.MustSetScore(a, "p", 1)
	repo.MustSetScore(a, "q", 1)
	repo.MustSetScore(b, "q", 1)
	repo.MustSetScore(b, "r", 1)
	repo.MustSetScore(c, "x", 1)
	// a vs b: |∩|=1, |∪|=3 → distance 2/3.
	if got := jaccardDistance(repo, a, b); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("d(a,b) = %v, want 2/3", got)
	}
	// Disjoint sets: distance 1.
	if got := jaccardDistance(repo, a, c); got != 1 {
		t.Fatalf("d(a,c) = %v, want 1", got)
	}
	// Identical sets: distance 0.
	if got := jaccardDistance(repo, a, a); got != 0 {
		t.Fatalf("d(a,a) = %v, want 0", got)
	}
	// Both empty: defined as 0.
	if got := jaccardDistance(repo, d, d); got != 0 {
		t.Fatalf("d(empty,empty) = %v, want 0", got)
	}
}

func TestPodiumAdapterMatchesCore(t *testing.T) {
	ix := paperIndex(t)
	users := Podium{Weights: groups.WeightLBS, Coverage: groups.CoverSingle}.Select(ix, 2)
	if len(users) != 2 || users[0] != 0 || users[1] != 4 {
		t.Fatalf("Podium adapter selected %v, want [0 4]", users)
	}
}

func TestOptimalAdapter(t *testing.T) {
	ix := paperIndex(t)
	users := Optimal{Weights: groups.WeightLBS, Coverage: groups.CoverSingle}.Select(ix, 2)
	if len(users) != 2 || users[0] != 0 || users[1] != 4 {
		t.Fatalf("Optimal selected %v, want [0 4]", users)
	}
}
