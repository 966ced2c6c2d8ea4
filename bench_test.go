package podium

// One benchmark per table/figure of the paper's evaluation (Section 8), plus
// micro-benchmarks of the hot paths. Each figure benchmark runs its
// experiment driver end-to-end on a scaled synthetic dataset and logs the
// resulting rows once (with -v), so `go test -bench=.` both times the
// pipeline and regenerates the figures' series. cmd/podium-bench prints the
// same tables standalone, with -scale to approach paper-scale datasets.

import (
	"bytes"
	"sync"
	"testing"

	"podium/internal/baselines"
	"podium/internal/core"
	"podium/internal/experiments"
	"podium/internal/groups"
	"podium/internal/synth"
)

const (
	benchTAUsers   = 400
	benchYelpUsers = 600
	benchBudget    = 8
)

var (
	benchOnce sync.Once
	benchTA   *synth.Dataset
	benchYelp *synth.Dataset
)

func benchDatasets() (*synth.Dataset, *synth.Dataset) {
	benchOnce.Do(func() {
		benchTA = synth.Generate(synth.TripAdvisorLike(benchTAUsers))
		benchYelp = synth.Generate(synth.YelpLike(benchYelpUsers))
	})
	return benchTA, benchYelp
}

func logTable(b *testing.B, t *experiments.Table) {
	b.Helper()
	var buf bytes.Buffer
	t.Render(&buf)
	b.Log("\n" + buf.String())
}

// E1 — Figure 3a: TripAdvisor intrinsic diversity.
func BenchmarkFig3aTripAdvisorIntrinsic(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunIntrinsic(experiments.IntrinsicConfig{Dataset: ta, Seed: 7, Budget: benchBudget})
	}
	logTable(b, tab.Normalized())
}

// E2 — Figure 3b: TripAdvisor opinion diversity.
func BenchmarkFig3bTripAdvisorOpinion(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunOpinion(experiments.OpinionConfig{Dataset: ta, Seed: 7, Budget: benchBudget})
	}
	logTable(b, tab.Normalized())
}

// E3 — Figure 3c: Yelp intrinsic diversity.
func BenchmarkFig3cYelpIntrinsic(b *testing.B) {
	_, yl := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunIntrinsic(experiments.IntrinsicConfig{Dataset: yl, Seed: 7, Budget: benchBudget})
	}
	logTable(b, tab.Normalized())
}

// E4 — Figure 3d: Yelp opinion diversity (adds the usefulness metric).
func BenchmarkFig3dYelpOpinion(b *testing.B) {
	_, yl := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunOpinion(experiments.OpinionConfig{
			Dataset: yl, Seed: 7, Budget: benchBudget, IncludeUsefulness: true, Destinations: 130,
		})
	}
	logTable(b, tab.Normalized())
}

// E5 — Figure 4: the effect of priority-coverage customization.
func BenchmarkFig4Customization(b *testing.B) {
	_, yl := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunCustomization(experiments.CustomizationConfig{
			Dataset: yl, Seed: 11, Budget: benchBudget, Repetitions: 5,
		})
	}
	logTable(b, tab)
}

// E6 — Figure 5: scalability in the number of users.
func BenchmarkFig5ScalabilityUsers(b *testing.B) {
	cfg := experiments.ScalabilityConfig{
		Budget: benchBudget, Seed: 5, UserCounts: []int{100, 200, 400, 800},
	}
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunScalabilityUsers(cfg)
	}
	logTable(b, tab)
}

// E7 — Figure 6: scalability in profile size.
func BenchmarkFig6ScalabilityProfile(b *testing.B) {
	cfg := experiments.ScalabilityConfig{
		Budget: benchBudget, Seed: 5, ProfileProps: []int{25, 50, 100, 200}, FixedUsers: 400,
	}
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunScalabilityProfile(cfg)
	}
	logTable(b, tab)
}

// E8 — §8.4: greedy-versus-optimal approximation ratio.
func BenchmarkApproxRatio(b *testing.B) {
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunApproxRatio(experiments.ApproxConfig{Users: 40, Budget: 5, Seed: 3, Repetitions: 2})
	}
	logTable(b, tab)
}

// E10 — ablations over the design choices DESIGN.md calls out.
func BenchmarkAblationBucketing(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunBucketingAblation(experiments.AblationConfig{Dataset: ta, Budget: benchBudget})
	}
	logTable(b, tab)
}

func BenchmarkAblationSchemes(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunSchemeAblation(experiments.AblationConfig{Dataset: ta, Budget: benchBudget})
	}
	logTable(b, tab)
}

// --- Micro-benchmarks of the hot paths ---

func benchIndex(b *testing.B) *groups.Index {
	ta, _ := benchDatasets()
	return groups.Build(ta.Repo, groups.Config{K: 3})
}

// BenchmarkGroupBuild times the offline grouping module.
func BenchmarkGroupBuild(b *testing.B) {
	ta, _ := benchDatasets()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups.Build(ta.Repo, groups.Config{K: 3})
	}
}

// BenchmarkGreedyEager times Algorithm 1 proper (the greedy loop).
func BenchmarkGreedyEager(b *testing.B) {
	ix := benchIndex(b)
	inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, benchBudget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Greedy(inst, benchBudget)
	}
}

// BenchmarkGreedyReference times the preserved seed implementation, the
// fixed baseline the engine's allocation and speedup wins are measured
// against (see cmd/podium-bench engine / BENCH_selection.json).
func BenchmarkGreedyReference(b *testing.B) {
	ix := benchIndex(b)
	inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, benchBudget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ReferenceGreedy(inst, benchBudget, nil)
	}
}

// BenchmarkGreedyParallel times the engine with every CPU's worth of
// workers; output is bit-identical to BenchmarkGreedyEager's.
func BenchmarkGreedyParallel(b *testing.B) {
	ix := benchIndex(b)
	inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, benchBudget)
	opt := core.DefaultParallel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GreedyOpts(inst, benchBudget, opt)
	}
}

// BenchmarkGreedyEBS times the exact rank-vector EBS path.
func BenchmarkGreedyEBS(b *testing.B) {
	ix := benchIndex(b)
	inst := groups.NewInstance(ix, groups.WeightEBS, groups.CoverSingle, benchBudget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Greedy(inst, benchBudget)
	}
}

// BenchmarkGreedyCustomRestricted times the CUSTOM-DIVERSITY path, whose
// refined population exercises the engine's compacted candidate list.
func BenchmarkGreedyCustomRestricted(b *testing.B) {
	ix := benchIndex(b)
	inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, benchBudget)
	top := ix.TopKBySize(6)
	fb := core.Feedback{MustHave: top[:1], Priority: top[1:3]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyCustom(inst, fb, benchBudget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistanceBaseline times the S-Model greedy.
func BenchmarkDistanceBaseline(b *testing.B) {
	ix := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.Distance{}.Select(ix, benchBudget)
	}
}

// BenchmarkClusteringBaseline times sparse k-means selection; the paper
// reports it ~9× slower than Podium.
func BenchmarkClusteringBaseline(b *testing.B) {
	ix := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.Clustering{Seed: 1}.Select(ix, benchBudget)
	}
}

// BenchmarkFacadeSelect times the public API end to end (grouping included).
func BenchmarkFacadeSelect(b *testing.B) {
	ta, _ := benchDatasets()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(ta.Repo)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Select(benchBudget); err != nil {
			b.Fatal(err)
		}
	}
}
