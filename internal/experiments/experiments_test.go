package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"podium/internal/profile"
	"podium/internal/synth"
)

// Shared small datasets: generation and index construction dominate test
// time, so build each once.
var (
	datasetOnce sync.Once
	taSmall     *synth.Dataset
	ylSmall     *synth.Dataset
)

func testDatasets(t *testing.T) (*synth.Dataset, *synth.Dataset) {
	t.Helper()
	datasetOnce.Do(func() {
		taSmall = synth.Generate(synth.TripAdvisorLike(300))
		ylSmall = synth.Generate(synth.YelpLike(400))
	})
	return taSmall, ylSmall
}

func rowByName(t *testing.T, tab *Table, name string) Row {
	t.Helper()
	for _, r := range tab.Rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no row %q in %q", name, tab.Title)
	return Row{}
}

func TestTableNormalized(t *testing.T) {
	tab := &Table{
		Metrics: []string{"a", "b"},
		Rows: []Row{
			{Name: "x", Values: map[string]float64{"a": 2, "b": 0}},
			{Name: "y", Values: map[string]float64{"a": 1, "b": 0}},
		},
	}
	n := tab.Normalized()
	if n.Rows[0].Get("a") != 1 || n.Rows[1].Get("a") != 0.5 {
		t.Fatalf("normalized = %+v", n.Rows)
	}
	if n.Rows[0].Get("b") != 0 {
		t.Fatalf("zero column altered: %v", n.Rows[0].Get("b"))
	}
	if tab.Rows[0].Get("a") != 2 {
		t.Fatal("Normalized mutated the source table")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{
		Metrics: []string{"m1", "m2"},
		Rows: []Row{
			{Name: "a", Values: map[string]float64{"m1": 1.5, "m2": 0.25}},
			{Name: "b, quoted", Values: map[string]float64{"m1": 2}},
		},
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "name,m1,m2" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "a,1.5,0.25" {
		t.Fatalf("row = %q", lines[1])
	}
	if !strings.Contains(lines[2], `"b, quoted"`) {
		t.Fatalf("comma in name not quoted: %q", lines[2])
	}
	if !strings.Contains(lines[2], ",2,0") {
		t.Fatalf("missing metric defaults to 0: %q", lines[2])
	}
}

func TestTableLeaderAndRender(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Metrics: []string{"m"},
		Rows: []Row{
			{Name: "x", Values: map[string]float64{"m": 1}},
			{Name: "y", Values: map[string]float64{"m": 3}},
		},
	}
	if got := tab.Leader("m"); got != "y" {
		t.Fatalf("Leader = %q", got)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T", "m", "x", "y", "3.0000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// E1/E3 shape: Podium outperforms the alternatives in every intrinsic
// metric, on both datasets (the paper's headline finding).
func TestIntrinsicPodiumWinsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-scale test")
	}
	ta, yl := testDatasets(t)
	for _, ds := range []*synth.Dataset{ta, yl} {
		tab := RunIntrinsic(IntrinsicConfig{Dataset: ds, Seed: 7})
		// Strict leads on the metrics Podium's objective targets (directly
		// or via top-group coverage).
		for _, m := range []string{MetricTotalScore, MetricTopK, MetricIntersected} {
			if leader := tab.Leader(m); leader != "Podium" {
				tab.Render(testWriter{t})
				t.Fatalf("%s: %s led by %s, want Podium", ds.Name, m, leader)
			}
		}
		// Distribution similarity is not optimized directly (the paper calls
		// Podium's lead there "surprising"); on small synthetic instances a
		// baseline may tie it, so require Podium within 2% of the leader.
		norm := tab.Normalized()
		podium := rowByName(t, norm, "Podium")
		if podium.Get(MetricDistribution) < 0.98 {
			norm.Render(testWriter{t})
			t.Fatalf("%s: Podium at %.3f of the distribution-similarity leader, want >= 0.98",
				ds.Name, podium.Get(MetricDistribution))
		}
	}
}

// E1/E3 shape: the Podium-vs-baseline gap in total score is larger on the
// Yelp-like dataset ("for this dataset our results are better than the
// baselines by a significantly larger gap").
func TestIntrinsicYelpGapLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-scale test")
	}
	ta, yl := testDatasets(t)
	gap := func(ds *synth.Dataset) float64 {
		tab := RunIntrinsic(IntrinsicConfig{Dataset: ds, Seed: 7}).Normalized()
		// Best non-Podium normalized total score; gap = 1 - that.
		best := 0.0
		for _, r := range tab.Rows {
			if r.Name != "Podium" && r.Get(MetricTotalScore) > best {
				best = r.Get(MetricTotalScore)
			}
		}
		return 1 - best
	}
	if gap(yl) <= gap(ta)*0.8 {
		t.Logf("warning: yelp-like gap %.3f vs tripadvisor-like %.3f — weaker than the paper's trend", gap(yl), gap(ta))
	}
}

// E2/E4 shape: Podium leads the representativeness opinion metrics; Random
// is allowed to win rating variance (the paper's stated exception).
func TestOpinionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-scale test")
	}
	ta, yl := testDatasets(t)
	for _, tc := range []struct {
		ds         *synth.Dataset
		usefulness bool
	}{{ta, false}, {yl, true}} {
		tab := RunOpinion(OpinionConfig{Dataset: tc.ds, Seed: 7, IncludeUsefulness: tc.usefulness})
		podium := rowByName(t, tab, "Podium")
		random := rowByName(t, tab, "Random")
		if podium.Get(MetricTopicSentiment) < random.Get(MetricTopicSentiment) {
			t.Errorf("%s: Random beats Podium on topic+sentiment (%v vs %v)",
				tc.ds.Name, random.Get(MetricTopicSentiment), podium.Get(MetricTopicSentiment))
		}
		if podium.Get(MetricRatingSim) <= 0 || podium.Get(MetricRatingSim) > 1 {
			t.Errorf("%s: rating similarity out of range: %v", tc.ds.Name, podium.Get(MetricRatingSim))
		}
		if tc.usefulness {
			if _, ok := podium.Values[MetricUsefulness]; !ok {
				t.Errorf("%s: usefulness column missing", tc.ds.Name)
			}
		}
	}
}

// E5 shape: feedback-group coverage decreases as the priority set grows, and
// the intrinsic metrics never exceed the no-feedback baseline by much.
func TestCustomizationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-scale test")
	}
	_, yl := testDatasets(t)
	tab := RunCustomization(CustomizationConfig{
		Dataset: yl, Seed: 11, Repetitions: 5, Sizes: []int{20, 40, 60, 80},
	})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	base := tab.Rows[0]
	if base.Name != "No feedback" {
		t.Fatalf("first row = %q", base.Name)
	}
	if base.Get(MetricFeedbackGroups) != 1 {
		t.Fatalf("baseline feedback coverage = %v, want 1 (no priority groups)", base.Get(MetricFeedbackGroups))
	}
	prev := 2.0
	for _, r := range tab.Rows[1:] {
		fc := r.Get(MetricFeedbackGroups)
		if fc > prev+0.05 {
			t.Fatalf("feedback coverage not decreasing: %v after %v", fc, prev)
		}
		prev = fc
		// Customization restricts the selection: total score at most the
		// unconstrained optimum's (greedy noise tolerated).
		if r.Get(MetricTotalScore) > base.Get(MetricTotalScore)*1.05 {
			t.Fatalf("customized score %v exceeds baseline %v", r.Get(MetricTotalScore), base.Get(MetricTotalScore))
		}
	}
}

// E8: the empirical approximation ratio is near-optimal, as in the paper's
// 0.998 report — far above the (1-1/e) floor.
func TestApproxRatioNearOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("exponential baseline")
	}
	tab := RunApproxRatio(ApproxConfig{Users: 30, Budget: 4, Seed: 3, Repetitions: 3})
	mean := rowByName(t, tab, "mean").Get("Ratio")
	if mean < 0.95 {
		t.Fatalf("mean ratio = %v, want near-optimal", mean)
	}
	if mean > 1+1e-9 {
		t.Fatalf("mean ratio = %v exceeds 1 — optimal solver is broken", mean)
	}
}

// E6/E7 smoke: sweeps produce a timing per selector per point.
func TestScalabilitySweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	cfg := ScalabilityConfig{
		Budget:       4,
		Seed:         5,
		UserCounts:   []int{80, 160},
		ProfileProps: []int{25, 50},
		FixedUsers:   120,
	}
	users := RunScalabilityUsers(cfg)
	if len(users.Rows) != 2 || len(users.Metrics) != 3 {
		t.Fatalf("users sweep shape: %d rows, %d metrics", len(users.Rows), len(users.Metrics))
	}
	for _, r := range users.Rows {
		for _, m := range users.Metrics {
			if r.Get(m) < 0 {
				t.Fatalf("negative timing %v", r.Get(m))
			}
		}
	}
	props := RunScalabilityProfile(cfg)
	if len(props.Rows) != 2 {
		t.Fatalf("profile sweep rows = %d", len(props.Rows))
	}
}

// E10 smoke + invariants.
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-scale test")
	}
	ta, _ := testDatasets(t)
	cfg := AblationConfig{Dataset: ta}

	b := RunBucketingAblation(cfg)
	if len(b.Rows) != 6 {
		t.Fatalf("bucketing rows = %d, want 6 methods", len(b.Rows))
	}
	for _, r := range b.Rows {
		if r.Get("Groups") <= 0 {
			t.Fatalf("method %s produced no groups", r.Name)
		}
	}

	s := RunSchemeAblation(cfg)
	if len(s.Rows) != 6 {
		t.Fatalf("scheme rows = %d, want 3×2", len(s.Rows))
	}
	// LBS+Single optimizes the reference objective: no other scheme may
	// beat it on the reference score.
	ref := rowByName(t, s, "LBS+Single").Get(MetricTotalScore)
	for _, r := range s.Rows {
		if r.Get(MetricTotalScore) > ref+1e-6 {
			t.Fatalf("%s beats LBS+Single on its own objective", r.Name)
		}
	}
}

// E11 (future work §10): weight noise trades solution quality for output
// variety; zero noise has zero variety and the best score, and variety is
// non-decreasing in σ (checked loosely — it is stochastic).
func TestNoiseAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-scale test")
	}
	ta, _ := testDatasets(t)
	tab := RunNoiseAblation(NoiseConfig{
		Dataset: ta, Seed: 13, Repetitions: 6, Levels: []float64{0, 0.5, 1.5},
	})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	zero := tab.Rows[0]
	if zero.Get("Output Variety") != 0 {
		t.Fatalf("zero-noise variety = %v", zero.Get("Output Variety"))
	}
	for _, r := range tab.Rows[1:] {
		if r.Get(MetricTotalScore) > zero.Get(MetricTotalScore)+1e-6 {
			t.Fatalf("noisy mean score %v beats exact greedy %v", r.Get(MetricTotalScore), zero.Get(MetricTotalScore))
		}
	}
	if tab.Rows[2].Get("Output Variety") <= 0 {
		t.Fatal("heavy noise produced no output variety")
	}
}

// E15 shape (§8.4 closing remark): as B increases every algorithm's
// coverage improves and Podium's gap over the best baseline shrinks (or at
// least does not grow), while Podium stays ahead.
func TestBudgetSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-scale test")
	}
	ta, _ := testDatasets(t)
	tab := RunBudgetSweep(BudgetSweepConfig{Dataset: ta, Seed: 7, Budgets: []int{2, 8, 32}})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	prevPodium := -1.0
	for _, r := range tab.Rows {
		p := r.Get("Podium")
		if p < prevPodium-1e-9 {
			t.Fatalf("Podium coverage decreased with budget: %v after %v", p, prevPodium)
		}
		prevPodium = p
		if r.Get("Gap") < -0.02 {
			t.Fatalf("%s: Podium behind best baseline by %v", r.Name, -r.Get("Gap"))
		}
	}
	// Gap at B=32 no larger than at B=2 (the paper's "gaps slightly
	// decrease").
	if tab.Rows[2].Get("Gap") > tab.Rows[0].Get("Gap")+0.05 {
		t.Fatalf("gap grew with budget: %v -> %v", tab.Rows[0].Get("Gap"), tab.Rows[2].Get("Gap"))
	}
}

// E16: over random subsets, intrinsically more diverse subsets procure more
// diverse opinions — positive correlation, the paper's closing claim of
// §8.4 quantified.
func TestDiversityTransferPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-scale test")
	}
	ta, _ := testDatasets(t)
	tab := RunDiversityTransfer(TransferConfig{Dataset: ta, Seed: 21, Samples: 40})
	r := tab.Rows[0]
	if got := r.Get("Topic+Sentiment r"); got <= 0 {
		t.Fatalf("topic correlation = %v, want positive", got)
	}
	if got := r.Get("Rating Dist Sim r"); got <= -0.2 {
		t.Fatalf("rating-similarity correlation = %v, unexpectedly negative", got)
	}
}

// E14 shape: hold-out evaluation keeps every metric in range and the
// excluded-category selection cannot trivially collapse (each algorithm
// still returns a full budget).
func TestHoldOutShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-scale test")
	}
	ta, _ := testDatasets(t)
	tab := RunHoldOut(HoldOutConfig{Dataset: ta, Seed: 7, Destinations: 8})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		ts := r.Get(MetricTopicSentiment)
		if ts < 0 || ts > 1 {
			t.Fatalf("%s: topic coverage %v out of range", r.Name, ts)
		}
		rs := r.Get(MetricRatingSim)
		if rs < 0 || rs > 1 {
			t.Fatalf("%s: rating similarity %v out of range", r.Name, rs)
		}
	}
	podium := rowByName(t, tab, "Podium")
	random := rowByName(t, tab, "Random")
	if podium.Get(MetricTopicSentiment) < random.Get(MetricTopicSentiment)*0.8 {
		t.Fatalf("hold-out: Podium topic coverage %v far below Random %v",
			podium.Get(MetricTopicSentiment), random.Get(MetricTopicSentiment))
	}
}

// The excluded category's aggregates really are absent from the hold-out
// selection repository.
func TestRepoExcludingCategory(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-scale test")
	}
	ta, _ := testDatasets(t)
	out := repoExcludingCategory(ta.Repo, "Mexican")
	for id := 0; id < out.NumProperties(); id++ {
		label := out.Catalog().Label(profile.PropertyID(id))
		if strings.Contains(label, "Mexican") {
			t.Fatalf("excluded category survives: %q", label)
		}
	}
	if out.NumProperties() == 0 || out.NumUsers() != ta.Repo.NumUsers() {
		t.Fatalf("projection shape wrong: %d props, %d users", out.NumProperties(), out.NumUsers())
	}
}

// E12 shape: the extended comparison keeps Podium ahead of the survey-style
// stratified baseline on coverage, while stratified sampling shines only on
// proportionate deviation (the objective it was designed for).
func TestExtendedIntrinsicShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-scale test")
	}
	ta, _ := testDatasets(t)
	tab := RunExtendedIntrinsic(IntrinsicConfig{Dataset: ta, Seed: 7})
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 selectors", len(tab.Rows))
	}
	podium := rowByName(t, tab, "Podium")
	strat := rowByName(t, tab, "Stratified")
	if podium.Get(MetricTotalScore) <= strat.Get(MetricTotalScore) {
		t.Fatalf("stratified sampling beats Podium on total score (%v vs %v)",
			strat.Get(MetricTotalScore), podium.Get(MetricTotalScore))
	}
	if podium.Get(MetricTopK) < strat.Get(MetricTopK) {
		t.Fatalf("stratified sampling beats Podium on top-k coverage")
	}
	for _, r := range tab.Rows {
		d := r.Get(MetricProportionate)
		if d < 0 || d > 1 {
			t.Fatalf("%s: proportionate deviation %v out of range", r.Name, d)
		}
	}
	// Max-min distance avoids overlap even harder than max-sum: its
	// intersected coverage must not beat Podium's.
	maxmin := rowByName(t, tab, "DistanceMaxMin")
	if maxmin.Get(MetricIntersected) > podium.Get(MetricIntersected) {
		t.Fatalf("max-min distance beats Podium on intersected coverage")
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
