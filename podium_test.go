package podium

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
)

func paperPodium(t *testing.T, opts ...Option) *Podium {
	t.Helper()
	opts = append([]Option{WithFixedCuts(0.4, 0.65)}, opts...)
	p, err := New(profile.PaperExample(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewNilRepository(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil repository accepted")
	}
}

func TestSelectPaperExample(t *testing.T) {
	p := paperPodium(t)
	sel, err := p.Select(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Users) != 2 || sel.Names[0] != "Alice" || sel.Names[1] != "Eve" {
		t.Fatalf("selected %v, want Alice then Eve", sel.Names)
	}
	if sel.Score != 17 {
		t.Fatalf("score = %v, want 17", sel.Score)
	}
	if sel.Report == nil || len(sel.Report.Users) != 2 {
		t.Fatalf("report missing")
	}
}

func TestSelectBudgetValidation(t *testing.T) {
	p := paperPodium(t)
	if _, err := p.Select(0); err == nil {
		t.Fatal("budget 0 accepted")
	}
	if _, err := p.SelectCustom(-1, Feedback{}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestSelectCustomExample(t *testing.T) {
	p := paperPodium(t)
	fb := Feedback{
		MustHave: p.GroupsOfProperty(profile.ExAvgMexican),
		Priority: append(append(append(
			p.GroupsOfProperty(profile.ExLivesInTokyo),
			p.GroupsOfProperty(profile.ExLivesInNYC)...),
			p.GroupsOfProperty(profile.ExLivesInBali)...),
			p.GroupsOfProperty(profile.ExLivesInParis)...),
	}
	sel, err := p.SelectCustom(2, fb)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Names[0] != "Alice" && sel.Names[0] != "Eve" {
		t.Fatalf("selected %v", sel.Names)
	}
	if sel.PriorityScore != 3 || sel.StandardScore != 14 {
		t.Fatalf("tier scores = %v/%v, want 3/14 (Example 6.4)", sel.PriorityScore, sel.StandardScore)
	}
	for _, name := range sel.Names {
		if name == "Carol" {
			t.Fatal("Carol selected despite must-have filter")
		}
	}
}

func TestSelectCustomBadFeedback(t *testing.T) {
	p := paperPodium(t)
	if _, err := p.SelectCustom(2, Feedback{Priority: []GroupID{999}}); err == nil {
		t.Fatal("invalid feedback accepted")
	}
}

func TestOptions(t *testing.T) {
	repo := profile.PaperExample()
	for _, name := range []string{"equal-width", "quantile", "jenks", "kmeans", "em", "kde-valleys"} {
		p, err := New(repo, WithBucketing(name), WithBuckets(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.NumGroups() == 0 {
			t.Fatalf("%s: no groups", name)
		}
	}
	p, err := New(repo, WithWeights(WeightIden), WithCoverage(CoverProp), WithTopK(5), WithMinGroupSize(1))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := p.Select(2)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Report.TopK > 5 {
		t.Fatalf("TopK = %d, want <= 5", sel.Report.TopK)
	}
}

func TestUnknownBucketingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown bucketing did not panic")
		}
	}()
	_, _ = New(profile.PaperExample(), WithBucketing("bogus"))
}

func TestGroupAccessors(t *testing.T) {
	p := paperPodium(t)
	if p.NumGroups() != 16 {
		t.Fatalf("NumGroups = %d, want 16", p.NumGroups())
	}
	if len(p.Groups()) != 16 {
		t.Fatal("Groups length mismatch")
	}
	ids := p.GroupsOfProperty(profile.ExAvgMexican)
	if len(ids) != 2 {
		t.Fatalf("avgRating Mexican groups = %d, want 2", len(ids))
	}
	label := p.GroupLabel(ids[1])
	if !strings.Contains(label, "avgRating Mexican") {
		t.Fatalf("label = %q", label)
	}
	if got := p.GroupsOfProperty("nope"); got != nil {
		t.Fatalf("unknown property groups = %v", got)
	}
}

func TestManualAndIntersectionGroupsFacade(t *testing.T) {
	p := paperPodium(t)
	// A surveyor stratum, prioritized: its member must be selected first.
	gid, err := p.AddManualGroup("panel veterans", []UserID{2}) // Carol
	if err != nil {
		t.Fatal(err)
	}
	sel, err := p.SelectCustom(1, Feedback{Priority: []GroupID{gid}, StandardExplicit: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Names) != 1 || sel.Names[0] != "Carol" {
		t.Fatalf("selected %v, want Carol (the only panel veteran)", sel.Names)
	}
	// Intersection of two property groups through the facade.
	tokyo := p.GroupsOfProperty(profile.ExLivesInTokyo)
	mex := p.GroupsOfProperty(profile.ExAvgMexican)
	iid, err := p.AddIntersectionGroup(tokyo[0], mex[len(mex)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.GroupLabel(iid), "AND") {
		t.Fatalf("intersection label = %q", p.GroupLabel(iid))
	}
	if _, err := p.AddManualGroup("bad", nil); err == nil {
		t.Fatal("empty manual group accepted")
	}
}

func TestDistributionFacade(t *testing.T) {
	p := paperPodium(t)
	all, subset, buckets, err := p.Distribution(profile.ExAvgMexican, []UserID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || len(subset) != 3 || len(buckets) != 3 {
		t.Fatalf("shape: %d/%d/%d", len(all), len(subset), len(buckets))
	}
	if _, _, _, err := p.Distribution("nope", nil); err == nil {
		t.Fatal("unknown property accepted")
	}
}

func TestLoadRepository(t *testing.T) {
	var buf bytes.Buffer
	if err := profile.PaperExample().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	repo, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if repo.NumUsers() != 5 {
		t.Fatalf("users = %d", repo.NumUsers())
	}
	if _, err := LoadRepository(strings.NewReader("not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestReportRenderThroughFacade(t *testing.T) {
	p := paperPodium(t)
	sel, _ := p.Select(2)
	var buf bytes.Buffer
	sel.Report.Render(&buf)
	if !strings.Contains(buf.String(), "Alice") {
		t.Fatal("report render missing selected user")
	}
}

func TestWithRuleThroughFacade(t *testing.T) {
	// Every registered rule selects through the facade, pick for pick what
	// the core rule greedy selects on the same instance.
	for _, name := range RuleNames() {
		p := paperPodium(t, WithRule(name))
		sel, err := p.Select(2)
		if err != nil {
			t.Fatalf("rule %s: %v", name, err)
		}
		inst := groups.NewInstance(p.index, WeightLBS, CoverSingle, 2)
		want, err := core.GreedyRule(inst, 2, core.MustRule(name), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.Users) != 2 || !slices.Equal(sel.Users, want.Users) {
			t.Fatalf("rule %s: facade selected %v, core %v", name, sel.Users, want.Users)
		}
	}

	// The default-rule facade path is unchanged: paper example picks.
	p := paperPodium(t, WithRule("coverage"))
	sel, err := p.Select(2)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Names[0] != "Alice" || sel.Names[1] != "Eve" {
		t.Fatalf("coverage rule selected %v, want Alice then Eve", sel.Names)
	}
}

func TestWithRuleValidation(t *testing.T) {
	if _, err := New(profile.PaperExample(), WithRule("nope")); err == nil {
		t.Fatal("unknown rule accepted at New")
	}
	if _, err := New(profile.PaperExample(), WithRule("harmonic"), WithWeights(WeightEBS)); err == nil {
		t.Fatal("EBS-incompatible rule accepted at New")
	}
	p := paperPodium(t, WithRule("maxcov"))
	if _, err := p.SelectCustom(2, Feedback{Priority: []GroupID{0}}); err == nil {
		t.Fatal("feedback customization accepted under a non-default rule")
	}
}
