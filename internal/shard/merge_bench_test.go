package shard

import (
	"fmt"
	"sync"
	"testing"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/synth"
)

// mergeCase is one rule and budget of the cluster mix with the merge
// round's inputs: the global instance and the 4-shard plan's winner union.
type mergeCase struct {
	rule   *core.Rule
	budget int
	inst   *groups.Instance
	cands  []profile.UserID
}

var (
	mergeOnce  sync.Once
	mergeCases []mergeCase
	mergeErr   error
)

// scaleMergeCases builds the 100K-user ScaleLike index (seed 7, K=3) and a
// 4-shard plan once, and runs round 1 of each cluster combination on it
// (LBS/Single): 32 candidates at budget 8, 64 at budget 16. Each instance's
// memos are warmed by one merge, as an epoch's are on a server.
func scaleMergeCases(b *testing.B) []mergeCase {
	mergeOnce.Do(func() {
		cfg := synth.ScaleLike(100000)
		cfg.Seed = 7
		gcfg := groups.Config{K: 3}
		ix := groups.Build(synth.Generate(cfg).Repo, gcfg)
		ix.Freeze()
		plan, err := NewPlan(ix, gcfg, Options{Shards: 4})
		if err != nil {
			mergeErr = err
			return
		}
		for _, c := range []struct {
			rule   string
			budget int
		}{{"coverage", 8}, {"harmonic", 8}, {"fairness-floor", 16}, {"maxcov", 16}} {
			rl := core.MustRule(c.rule)
			res, err := plan.SelectRule(groups.WeightLBS, groups.CoverSingle, c.budget, rl, core.Options{})
			if err != nil {
				mergeErr = err
				return
			}
			inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, c.budget)
			if _, err := core.MergeGreedyRule(inst, res.Candidates, c.budget, rl, core.Options{}); err != nil {
				mergeErr = err
				return
			}
			mergeCases = append(mergeCases, mergeCase{rl, c.budget, inst, res.Candidates})
		}
	})
	if mergeErr != nil {
		b.Fatal(mergeErr)
	}
	return mergeCases
}

// BenchmarkMergeGreedyRule times the GreeDi merge round of each rule and
// budget a cluster select runs, sequentially, and reports the member links
// it walks (Result.Evaluations) as evals/op.
func BenchmarkMergeGreedyRule(b *testing.B) {
	for _, c := range scaleMergeCases(b) {
		b.Run(fmt.Sprintf("%s/%d", c.rule.Name(), c.budget), func(b *testing.B) {
			b.ReportAllocs()
			var evals int
			for i := 0; i < b.N; i++ {
				res, err := core.MergeGreedyRule(c.inst, c.cands, c.budget, c.rule, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				evals = res.Evaluations
			}
			b.ReportMetric(float64(evals), "evals/op")
		})
	}
}
