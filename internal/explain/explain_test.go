package explain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"podium/internal/bucketing"
	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/synth"
)

func paperInstance(t *testing.T) *groups.Instance {
	t.Helper()
	repo := profile.PaperExample()
	ix := groups.Build(repo, groups.Config{Method: bucketing.Fixed{Interior: []float64{0.4, 0.65}}, K: 3})
	return groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, 2)
}

func findGroupID(t *testing.T, inst *groups.Instance, label string) groups.GroupID {
	t.Helper()
	for _, g := range inst.Index.Groups() {
		if g.Label(inst.Index.Repo().Catalog()) == label {
			return g.ID
		}
	}
	t.Fatalf("no group labeled %q", label)
	return -1
}

func TestForGroupExample52(t *testing.T) {
	// Example 5.2: ⟨"high average rating for Mexican Cuisine", 3, 1⟩.
	inst := paperInstance(t)
	gid := findGroupID(t, inst, "high scores for avgRating Mexican")
	ge := ForGroup(inst, gid)
	if ge.Weight != 3 || ge.Cov != 1 {
		t.Fatalf("explanation = %+v, want weight 3 cov 1", ge)
	}
	// ⟨"lives in Tokyo", 2, 1⟩ with the Boolean bucket label omitted.
	tge := ForGroup(inst, findGroupID(t, inst, profile.ExLivesInTokyo))
	if tge.Weight != 2 || tge.Cov != 1 {
		t.Fatalf("Tokyo explanation = %+v", tge)
	}
	if strings.Contains(tge.Label, "true") {
		t.Fatalf("Boolean label not suppressed: %q", tge.Label)
	}
}

func TestForUserAlice(t *testing.T) {
	// Example 5.2: Alice's explanation lists the groups she represents,
	// including Mexican-lovers and Tokyo.
	inst := paperInstance(t)
	ue := ForUser(inst, 0, 10)
	if ue.Name != "Alice" || ue.Marginal != 10 {
		t.Fatalf("user explanation = %+v", ue)
	}
	if len(ue.Groups) != 6 {
		t.Fatalf("Alice represents %d groups, want 6", len(ue.Groups))
	}
	// Sorted by decreasing weight: the weight-3 lovers group first.
	if ue.Groups[0].Weight != 3 {
		t.Fatalf("top group weight = %v", ue.Groups[0].Weight)
	}
	for i := 1; i < len(ue.Groups); i++ {
		if ue.Groups[i].Weight > ue.Groups[i-1].Weight {
			t.Fatal("groups not sorted by weight")
		}
	}
}

func TestForSubsetExample52(t *testing.T) {
	// Example 5.2: {Alice, Eve} vs the Mexican-lovers group is ⟨1, 2⟩ —
	// required one, both belong, coverage exceeded.
	inst := paperInstance(t)
	gid := findGroupID(t, inst, "high scores for avgRating Mexican")
	sg := ForSubset(inst, []profile.UserID{0, 4}, gid)
	if sg.Required != 1 || sg.Actual != 2 || !sg.Covered {
		t.Fatalf("subset-group = %+v, want required 1 actual 2", sg)
	}
	// A group with no selected member is uncovered.
	nyc := ForSubset(inst, []profile.UserID{0, 4}, findGroupID(t, inst, profile.ExLivesInNYC))
	if nyc.Actual != 0 || nyc.Covered {
		t.Fatalf("NYC subset-group = %+v", nyc)
	}
}

func TestNewReport(t *testing.T) {
	inst := paperInstance(t)
	res := core.Greedy(inst, 2)
	rep := NewReport(inst, res, 5)
	if len(rep.Users) != 2 {
		t.Fatalf("report users = %d", len(rep.Users))
	}
	if rep.Users[0].Name != "Alice" || rep.Users[0].Marginal != 10 {
		t.Fatalf("first user = %+v", rep.Users[0])
	}
	if len(rep.Groups) != inst.Index.NumGroups() {
		t.Fatalf("report groups = %d", len(rep.Groups))
	}
	for i := 1; i < len(rep.Groups); i++ {
		if rep.Groups[i].Group.Weight > rep.Groups[i-1].Group.Weight {
			t.Fatal("groups not in decreasing weight order")
		}
	}
	if rep.TopK != 5 {
		t.Fatalf("TopK = %d", rep.TopK)
	}
	if rep.TopKCovered < 1 || rep.TopKCovered > 5 {
		t.Fatalf("TopKCovered = %d", rep.TopKCovered)
	}
	if f := rep.TopKFraction(); f != float64(rep.TopKCovered)/5 {
		t.Fatalf("TopKFraction = %v", f)
	}
}

func TestNewReportTopKClamped(t *testing.T) {
	inst := paperInstance(t)
	res := core.Greedy(inst, 2)
	rep := NewReport(inst, res, 1000)
	if rep.TopK != inst.Index.NumGroups() {
		t.Fatalf("TopK = %d, want clamped to %d", rep.TopK, inst.Index.NumGroups())
	}
}

func TestDistribution(t *testing.T) {
	inst := paperInstance(t)
	prop, _ := inst.Index.Repo().Catalog().Lookup(profile.ExAvgMexican)
	all, subset := Distribution(inst, []profile.UserID{0, 4}, prop)
	if len(all) != 3 || len(subset) != 3 {
		t.Fatalf("distribution lengths: %d %d", len(all), len(subset))
	}
	// Population: low {Bob} 1/4, medium 0, high {A,D,E} 3/4.
	if math.Abs(all[0]-0.25) > 1e-12 || all[1] != 0 || math.Abs(all[2]-0.75) > 1e-12 {
		t.Fatalf("all = %v", all)
	}
	// Subset {Alice, Eve}: both in high.
	if subset[0] != 0 || subset[1] != 0 || subset[2] != 1 {
		t.Fatalf("subset = %v", subset)
	}
	var sumAll, sumSub float64
	for i := range all {
		sumAll += all[i]
		sumSub += subset[i]
	}
	if math.Abs(sumAll-1) > 1e-9 || math.Abs(sumSub-1) > 1e-9 {
		t.Fatalf("distributions do not normalize: %v %v", sumAll, sumSub)
	}
}

func TestDistributionEmptySubset(t *testing.T) {
	inst := paperInstance(t)
	prop, _ := inst.Index.Repo().Catalog().Lookup(profile.ExAvgMexican)
	_, subset := Distribution(inst, nil, prop)
	for _, v := range subset {
		if v != 0 {
			t.Fatalf("empty subset distribution = %v", subset)
		}
	}
}

func TestRenderDistribution(t *testing.T) {
	var buf bytes.Buffer
	RenderDistribution(&buf, "avgRating Mexican",
		[]string{"low", "medium", "high"},
		[]float64{0.25, 0, 0.75},
		[]float64{0, 0, 1})
	out := buf.String()
	for _, want := range []string{"avgRating Mexican", "low", "high", "25.0%", "100.0%", "█", "▒"} {
		if !strings.Contains(out, want) {
			t.Fatalf("distribution render missing %q:\n%s", want, out)
		}
	}
	// Out-of-range fractions are clamped, and a short subset slice is safe.
	buf.Reset()
	RenderDistribution(&buf, "p", []string{"only"}, []float64{1.5}, nil)
	if !strings.Contains(buf.String(), "150.0%") {
		// The printed percentage shows the raw value; the bar is clamped.
		t.Fatalf("unexpected render:\n%s", buf.String())
	}
}

func TestRender(t *testing.T) {
	inst := paperInstance(t)
	res := core.Greedy(inst, 2)
	rep := NewReport(inst, res, 5)
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Alice", "Eve", "top-weight groups covered", "✓"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
}

// oracleReport builds the report straight from Definition 5.1: the user
// explanations in selection order, then ForSubset for every group of the
// index, ordered by decreasing weight with ties in ascending group ID.
func oracleReport(inst *groups.Instance, res *core.Result, topK int) *Report {
	rep := &Report{}
	for i, u := range res.Users {
		var marg float64
		if i < len(res.Marginals) {
			marg = res.Marginals[i]
		}
		rep.Users = append(rep.Users, ForUser(inst, u, marg))
	}
	order := make([]groups.GroupID, inst.Index.NumGroups())
	for i := range order {
		order[i] = groups.GroupID(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return inst.Wei[order[i]] > inst.Wei[order[j]] })
	rep.Groups = []SubsetGroup{}
	for _, gid := range order {
		rep.Groups = append(rep.Groups, ForSubset(inst, res.Users, gid))
	}
	rep.TopK = min(topK, len(rep.Groups))
	for _, sg := range rep.Groups[:rep.TopK] {
		if sg.Covered {
			rep.TopKCovered++
		}
	}
	return rep
}

// randomIndex builds a small synthetic index, adds intersection, union and
// manual groups, then mutates it: appended users indexed incrementally and
// score rewrites that move users between buckets.
func randomIndex(t *testing.T, seed int64) *groups.Index {
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
	// Appended users copy the scores of two existing users.
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
	// Score rewrites: a user takes another holder's score on one property.
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

// TestNewReportMatchesForSubset checks NewReport against oracleReport on
// random mutated indexes with complex groups, under every rule, weight and
// coverage scheme, plus arbitrary panels with a repeated user and missing
// marginals.
func TestNewReportMatchesForSubset(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		ix := randomIndex(t, seed)
		rng := rand.New(rand.NewSource(seed))
		n := ix.Repo().NumUsers()
		for _, ws := range []groups.WeightScheme{groups.WeightIden, groups.WeightLBS} {
			for _, cs := range []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp} {
				budget := 1 + rng.Intn(12)
				inst := groups.NewInstance(ix, ws, cs, budget)
				var results []*core.Result
				for _, rl := range core.Rules() {
					res, err := core.GreedyRule(inst, budget, rl, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					results = append(results, res)
				}
				panel := &core.Result{Marginals: []float64{1.5}}
				for i := 0; i < 1+rng.Intn(10); i++ {
					panel.Users = append(panel.Users, profile.UserID(rng.Intn(n)))
				}
				panel.Users = append(panel.Users, panel.Users[0])
				results = append(results, panel, &core.Result{})
				for i, res := range results {
					topK := []int{1, 200, ix.NumGroups(), 1 << 20}[rng.Intn(4)]
					got, want := NewReport(inst, res, topK), oracleReport(inst, res, topK)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s/%s result %d topK %d: report differs from the ForSubset oracle", seed, ws, cs, i, topK)
					}
					gj, _ := json.Marshal(got)
					wj, _ := json.Marshal(want)
					if !bytes.Equal(gj, wj) {
						t.Fatalf("seed %d %s/%s result %d: report JSON differs from the ForSubset oracle", seed, ws, cs, i)
					}
				}
			}
		}
	}
}
