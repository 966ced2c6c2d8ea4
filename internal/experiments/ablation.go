package experiments

import (
	"podium/internal/bucketing"
	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/metrics"
	"podium/internal/synth"
)

// AblationConfig parameterizes the design-choice ablations (DESIGN.md E10):
// bucketing method, weight scheme and coverage scheme.
type AblationConfig struct {
	Dataset   *synth.Dataset
	Budget    int
	TopK      int
	TopGroups int
}

func (c AblationConfig) withDefaults() AblationConfig {
	if c.Budget <= 0 {
		c.Budget = 8
	}
	if c.TopK <= 0 {
		c.TopK = 200
	}
	if c.TopGroups <= 0 {
		c.TopGroups = 20
	}
	return c
}

// RunBucketingAblation compares the 1-d splitting methods: how the choice of
// β(p) affects the intrinsic metrics of the greedy selection.
func RunBucketingAblation(cfg AblationConfig) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Ablation: bucketing method — " + cfg.Dataset.Name,
		Metrics: []string{MetricTotalScore, MetricTopK, MetricDistribution, "Groups"},
	}
	methods := []bucketing.Method{
		bucketing.EqualWidth{}, bucketing.Quantile{}, bucketing.Jenks{},
		bucketing.KMeans{}, bucketing.EM{}, bucketing.KDEValleys{},
	}
	for _, m := range methods {
		ix := groups.Build(cfg.Dataset.Repo, groups.Config{K: 3, Method: m})
		inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, cfg.Budget)
		users := core.Greedy(inst, cfg.Budget).Users
		t.Rows = append(t.Rows, Row{
			Name: m.Name(),
			Values: map[string]float64{
				MetricTotalScore:   metrics.TotalScore(inst, users),
				MetricTopK:         metrics.TopKCoverage(ix, users, cfg.TopK),
				MetricDistribution: metrics.DistributionSimilarity(ix, users, cfg.TopGroups),
				"Groups":           float64(ix.NumGroups()),
			},
		})
	}
	return t
}

// RunSchemeAblation compares the weight and coverage schemes of Definitions
// 3.6 and 3.7 on a shared index. Scores are reported under a common
// LBS+Single instance so the rows are comparable (each scheme optimizes its
// own objective; the table shows what that choice costs on the default one).
func RunSchemeAblation(cfg AblationConfig) *Table {
	cfg = cfg.withDefaults()
	ix := groups.Build(cfg.Dataset.Repo, groups.Config{K: 3})
	ref := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, cfg.Budget)
	t := &Table{
		Title:   "Ablation: weight × coverage scheme — " + cfg.Dataset.Name,
		Metrics: []string{MetricTotalScore, MetricTopK, MetricDistribution},
	}
	for _, ws := range []groups.WeightScheme{groups.WeightIden, groups.WeightLBS, groups.WeightEBS} {
		for _, cs := range []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp} {
			inst := groups.NewInstance(ix, ws, cs, cfg.Budget)
			users := core.Greedy(inst, cfg.Budget).Users
			t.Rows = append(t.Rows, Row{
				Name: ws.String() + "+" + cs.String(),
				Values: map[string]float64{
					MetricTotalScore:   metrics.TotalScore(ref, users),
					MetricTopK:         metrics.TopKCoverage(ix, users, cfg.TopK),
					MetricDistribution: metrics.DistributionSimilarity(ix, users, cfg.TopGroups),
				},
			})
		}
	}
	return t
}
