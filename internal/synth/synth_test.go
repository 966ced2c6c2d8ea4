package synth

import (
	"strings"
	"testing"

	"podium/internal/groups"
	"podium/internal/opinions"
	"podium/internal/profile"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := TripAdvisorLike(100)
	a := Generate(cfg)
	b := Generate(cfg)
	if a.Repo.NumUsers() != b.Repo.NumUsers() || a.Repo.NumProperties() != b.Repo.NumProperties() {
		t.Fatal("same seed produced different repository shapes")
	}
	if a.Store.NumReviews() != b.Store.NumReviews() {
		t.Fatal("same seed produced different review counts")
	}
	for u := 0; u < a.Repo.NumUsers(); u++ {
		pa, pb := a.Repo.Profile(profile.UserID(u)), b.Repo.Profile(profile.UserID(u))
		if pa.Len() != pb.Len() {
			t.Fatalf("user %d profile size differs", u)
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	cfg := TripAdvisorLike(80)
	a := Generate(cfg)
	cfg.Seed = 999
	b := Generate(cfg)
	if a.Store.NumReviews() == b.Store.NumReviews() && a.Repo.NumProperties() == b.Repo.NumProperties() {
		t.Log("different seeds produced same coarse shape (possible); checking profiles")
		same := true
		for u := 0; u < 10; u++ {
			if a.Repo.Profile(profile.UserID(u)).Len() != b.Repo.Profile(profile.UserID(u)).Len() {
				same = false
			}
		}
		if same {
			t.Fatal("different seeds produced identical data")
		}
	}
}

func TestTripAdvisorLikeShape(t *testing.T) {
	ds := Generate(TripAdvisorLike(150))
	repo := ds.Repo
	if repo.NumUsers() != 150 {
		t.Fatalf("users = %d", repo.NumUsers())
	}
	// High dimensionality: the paper's corpus has hundreds of properties.
	if repo.NumProperties() < 100 {
		t.Fatalf("properties = %d, want >= 100", repo.NumProperties())
	}
	// Taxonomy enrichment must have produced family-level aggregates.
	if _, ok := repo.Catalog().Lookup("avgRating Latin"); !ok {
		t.Fatal("no derived avgRating Latin property")
	}
	if _, ok := repo.Catalog().Lookup("avgRating Food"); !ok {
		t.Fatal("no derived root aggregate")
	}
	// Functional inference: some user must carry a false livesIn.
	foundFalse := false
	for u := 0; u < repo.NumUsers() && !foundFalse; u++ {
		repo.Profile(profile.UserID(u)).Each(func(id profile.PropertyID, s float64) {
			if s == 0 && strings.HasPrefix(repo.Catalog().Label(id), "livesIn ") {
				foundFalse = true
			}
		})
	}
	if !foundFalse {
		t.Fatal("functional city rule produced no inferred falsehoods")
	}
	// Ground truth exists.
	if ds.Store.NumReviews() < repo.NumUsers() {
		t.Fatalf("reviews = %d, want at least one per user", ds.Store.NumReviews())
	}
}

func TestYelpLikeSimplerSemantics(t *testing.T) {
	ta := Generate(TripAdvisorLike(150))
	yl := Generate(YelpLike(150))
	// "the Yelp dataset has more users, but less groups due to its simpler
	// semantics" — at equal user count it must have fewer properties.
	if yl.Repo.NumProperties() >= ta.Repo.NumProperties() {
		t.Fatalf("yelp-like properties %d not fewer than tripadvisor-like %d",
			yl.Repo.NumProperties(), ta.Repo.NumProperties())
	}
	// No taxonomy enrichment.
	if _, ok := yl.Repo.Catalog().Lookup("avgRating Latin"); ok {
		t.Fatal("yelp-like carries derived taxonomy aggregates")
	}
	// Usefulness votes present on at least one review.
	hasAny := false
	for d := 0; d < yl.Store.NumDestinations(); d++ {
		for _, r := range yl.Store.Reviews(opinions.DestID(d)) {
			if r.Useful > 0 {
				hasAny = true
			}
		}
	}
	if !hasAny {
		t.Fatal("yelp-like reviews carry no usefulness votes")
	}
}

func TestScoresWithinRange(t *testing.T) {
	ds := Generate(TripAdvisorLike(100))
	repo := ds.Repo
	for u := 0; u < repo.NumUsers(); u++ {
		repo.Profile(profile.UserID(u)).Each(func(id profile.PropertyID, s float64) {
			if s < 0 || s > 1 {
				t.Fatalf("user %d property %q score %v outside [0,1]",
					u, repo.Catalog().Label(id), s)
			}
		})
	}
}

func TestRatingsWithinScale(t *testing.T) {
	ds := Generate(YelpLike(100))
	for d := 0; d < ds.Store.NumDestinations(); d++ {
		for _, r := range ds.Store.Reviews(opinions.DestID(d)) {
			if r.Rating < 1 || r.Rating > ds.Store.MaxRating() {
				t.Fatalf("rating %d outside scale", r.Rating)
			}
		}
	}
}

func TestGroupSizeSkew(t *testing.T) {
	// Zipfian cities/categories must yield skewed group sizes — the trait
	// driving the paper's coverage-vs-distance findings.
	ds := Generate(TripAdvisorLike(200))
	ix := groups.Build(ds.Repo, groups.Config{K: 3})
	if ix.NumGroups() < 200 {
		t.Fatalf("groups = %d, want high-dimensional grouping", ix.NumGroups())
	}
	sizes := make([]int, 0, ix.NumGroups())
	for _, g := range ix.Groups() {
		sizes = append(sizes, g.Size())
	}
	max, sum := 0, 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
		sum += s
	}
	mean := float64(sum) / float64(len(sizes))
	if float64(max) < 5*mean {
		t.Fatalf("max group size %d vs mean %.1f — insufficient skew", max, mean)
	}
}

func TestGroupOverlap(t *testing.T) {
	// "each user belongs to many groups": average membership well above 1.
	ds := Generate(TripAdvisorLike(150))
	ix := groups.Build(ds.Repo, groups.Config{K: 3})
	total := 0
	for u := 0; u < ds.Repo.NumUsers(); u++ {
		total += len(ix.UserGroups(profile.UserID(u)))
	}
	avg := float64(total) / float64(ds.Repo.NumUsers())
	if avg < 10 {
		t.Fatalf("average groups per user = %.1f, want >= 10", avg)
	}
}

func TestCuisineTaxonomyShape(t *testing.T) {
	tax := CuisineTaxonomy()
	if got := len(tax.Leaves()); got != 26 {
		t.Fatalf("leaves = %d, want 26", got)
	}
	roots := tax.Roots()
	if len(roots) != 1 || roots[0] != "Food" {
		t.Fatalf("roots = %v", roots)
	}
	anc := tax.Ancestors("Mexican")
	if len(anc) != 2 || anc[0] != "Food" || anc[1] != "Latin" {
		t.Fatalf("Ancestors(Mexican) = %v", anc)
	}
}

// Paper-scale validation: at the full 4,475 users the corpus lands in the
// same order of magnitude as the paper's reported statistics — ~50K
// restaurants, thousands of groups (paper: 11,749), hundreds of properties
// in the largest profiles (paper: up to 665).
func TestPaperScaleCorpusStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full paper-scale corpus (~4s)")
	}
	ds := Generate(TripAdvisorLike(0))
	if ds.Repo.NumUsers() != 4475 {
		t.Fatalf("users = %d", ds.Repo.NumUsers())
	}
	if d := ds.Store.NumDestinations(); d < 45000 || d > 55000 {
		t.Fatalf("destinations = %d, want ≈50K", d)
	}
	ix := groups.Build(ds.Repo, groups.Config{K: 3})
	if g := ix.NumGroups(); g < 5000 || g > 20000 {
		t.Fatalf("groups = %d, want the paper's order of magnitude (11,749)", g)
	}
	if m := ds.Repo.MaxProfileSize(); m < 200 {
		t.Fatalf("max profile = %d, want hundreds of properties", m)
	}
}

func TestPaperScaleDefaultsPreserved(t *testing.T) {
	ta := TripAdvisorLike(0)
	if ta.Users != 4475 {
		t.Fatalf("TripAdvisor default users = %d, want 4475", ta.Users)
	}
	if ta.Destinations != 4475*11 {
		t.Fatalf("TripAdvisor default destinations = %d", ta.Destinations)
	}
	yl := YelpLike(0)
	if yl.Users != 60000 {
		t.Fatalf("Yelp default users = %d, want 60000", yl.Users)
	}
}
