package experiments

import (
	"fmt"
	"runtime"
	"time"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/shard"
	"podium/internal/synth"
)

// DistConfig parameterizes the distributed-selection suite: GreeDi two-round
// merge greedy (internal/shard) against single-node exact greedy, swept over
// population tiers and shard counts. The suite answers the two questions the
// sharded subsystem is accountable for: how much coverage the two-round merge
// gives up (none to speak of, empirically), and what the latency/partition
// costs look like as S grows.
type DistConfig struct {
	Seed   int64
	Budget int
	// Tiers is the population sweep (defaults to 10K and 100K users).
	Tiers []int
	// ShardCounts is the S sweep (defaults to 1, 4, 16).
	ShardCounts []int
	// Parallelism is the round-1 worker count (0 = NumCPU) — the per-shard
	// instance is the unit of parallelism.
	Parallelism int
	// Repetitions per timing; the minimum is reported (defaults to 3).
	Repetitions int

	// The replicated HTTP tier (dist_replica.go): a coordinator over
	// httptest-backed replica groups with injected faults, R=1 vs R=2, plus
	// R=2 with one replica of every shard killed.
	//
	// ReplicaUsers is its population (default 5000; negative skips the tier).
	ReplicaUsers int
	// ReplicaShards is its shard count (default 3).
	ReplicaShards int
	// ReplicaSelects is the number of timed selects per cell (default 16).
	ReplicaSelects int
	// FaultRate is the per-request fault probability each replica's injector
	// applies, split 60/40 between HTTP 500s and connection resets
	// (default 0.05).
	FaultRate float64
}

func (c DistConfig) withDefaults() DistConfig {
	if c.Budget <= 0 {
		c.Budget = 8
	}
	if len(c.Tiers) == 0 {
		c.Tiers = []int{10000, 100000}
	}
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 4, 16}
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 3
	}
	if c.ReplicaUsers == 0 {
		c.ReplicaUsers = 5000
	}
	if c.ReplicaShards <= 0 {
		c.ReplicaShards = 3
	}
	if c.ReplicaSelects <= 0 {
		c.ReplicaSelects = 16
	}
	if c.FaultRate <= 0 {
		c.FaultRate = 0.05
	}
	return c
}

// DistRow is one (population, shard count) cell of the sweep.
type DistRow struct {
	Users  int `json:"users"`
	Shards int `json:"shards"`
	// PlanSec is the one-time partition cost: consistent-hash assignment,
	// columnar slicing, and per-shard index builds (concurrent).
	PlanSec float64 `json:"plan_sec"`
	// SelectSec is one two-round distributed selection: round-1 greedy on
	// every shard (parallel) plus the exact merge over the winner union.
	SelectSec float64 `json:"select_sec"`
	// ExactSec is single-node exact greedy on the global instance — the
	// latency baseline the distributed path is compared against.
	ExactSec float64 `json:"exact_sec"`
	// Speedup is ExactSec / SelectSec (> 1 means the sharded path is faster).
	Speedup float64 `json:"speedup"`
	// MergedScore / ExactScore are the coverage objectives of the two paths;
	// Ratio = merged/exact is the empirical GreeDi loss (1.0 = lossless).
	MergedScore float64 `json:"merged_score"`
	ExactScore  float64 `json:"exact_score"`
	Ratio       float64 `json:"ratio"`
	// Candidates is the size of the merge round's pool (≤ S × budget).
	Candidates int `json:"candidates"`
	// DegradedRatio is the worst coverage ratio after dropping any single
	// shard's winners from the merge — the coordinator's shard-loss mode.
	// Zero when S = 1 (losing the only shard is total loss, not degradation).
	DegradedRatio float64 `json:"degraded_ratio,omitempty"`
}

// DistReport is serialized to BENCH_dist.json: the distributed selection
// quality/latency trajectory future PRs regress against.
type DistReport struct {
	Suite       string    `json:"suite"`
	Dataset     string    `json:"dataset"`
	Budget      int       `json:"budget"`
	Seed        int64     `json:"seed"`
	Parallelism int       `json:"parallelism"`
	NumCPU      int       `json:"num_cpu"`
	Rows        []DistRow `json:"rows"`
	// MinRatio is the worst merged/exact coverage ratio across the sweep —
	// the headline number (acceptance: ≥ 0.95 at the largest tier).
	MinRatio float64 `json:"min_ratio"`
	// MinDegradedRatio is the worst single-shard-loss ratio across S > 1.
	MinDegradedRatio float64 `json:"min_degraded_ratio"`
	// MaxSpeedup is the best exact-vs-distributed latency ratio observed.
	MaxSpeedup float64 `json:"max_speedup"`
	// Replicated is the HTTP tier: coordinator over replica groups behind
	// fault injectors, timed over the wire (absent when skipped).
	Replicated []ReplicaRow `json:"replicated,omitempty"`
	// ReplicaLossRatio is the R=2 one-replica-of-every-shard-killed coverage
	// over the R=1 baseline — the replication acceptance number (1.0 means
	// replica loss costs nothing).
	ReplicaLossRatio float64 `json:"replica_loss_ratio,omitempty"`
}

// RunDistSuite sweeps the sharded selection subsystem over Tiers × ShardCounts
// and returns the rendered table plus the JSON report.
func RunDistSuite(cfg DistConfig) (*Table, *DistReport, error) {
	cfg = cfg.withDefaults()
	const (
		mSel = "Select (s)"
		mExa = "Exact (s)"
		mPln = "Plan (s)"
		mRat = "Coverage ratio"
		mDeg = "Degraded ratio"
		mP99 = "p99 (s)"
	)
	t := &Table{
		Title:   fmt.Sprintf("Distributed selection: GreeDi merge vs exact (parallelism=%d)", cfg.Parallelism),
		Metrics: []string{mSel, mExa, mPln, mRat, mDeg, mP99},
	}
	rep := &DistReport{
		Suite:       "dist",
		Dataset:     "scale (profiles-only synthetic)",
		Budget:      cfg.Budget,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
		NumCPU:      runtime.NumCPU(),
	}

	for _, n := range cfg.Tiers {
		scfg := synth.ScaleLike(n)
		scfg.Seed = cfg.Seed
		repo := synth.Generate(scfg).Repo
		ix := groups.Build(repo, groups.Config{K: 3})
		ix.Freeze()

		// The single-node baseline, once per tier: exact greedy latency and
		// score on the global instance.
		inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, cfg.Budget)
		inst.BaseMarginals()
		opt := core.Options{Parallelism: cfg.Parallelism}
		exact := core.GreedyOpts(inst, cfg.Budget, opt)
		exactSec := timeMin(cfg.Repetitions, func() { core.GreedyOpts(inst, cfg.Budget, opt) })

		for _, s := range cfg.ShardCounts {
			row, err := runDistCell(ix, cfg, n, s, exact.Score, exactSec, opt)
			if err != nil {
				return nil, nil, err
			}
			rep.Rows = append(rep.Rows, row)
			if rep.MinRatio == 0 || row.Ratio < rep.MinRatio {
				rep.MinRatio = row.Ratio
			}
			if row.DegradedRatio > 0 && (rep.MinDegradedRatio == 0 || row.DegradedRatio < rep.MinDegradedRatio) {
				rep.MinDegradedRatio = row.DegradedRatio
			}
			if row.Speedup > rep.MaxSpeedup {
				rep.MaxSpeedup = row.Speedup
			}
			t.Rows = append(t.Rows, Row{
				Name: fmt.Sprintf("|U|=%d S=%d", n, s),
				Values: map[string]float64{
					mSel: row.SelectSec,
					mExa: row.ExactSec,
					mPln: row.PlanSec,
					mRat: row.Ratio,
					mDeg: row.DegradedRatio,
				},
			})
		}
	}
	// The replicated tier rides the same report: select latency lands in the
	// mSel column (p50) so the HTTP rows read against the in-process ones.
	if cfg.ReplicaUsers > 0 {
		if err := runReplicatedTier(cfg, rep, t, mSel, mP99, mRat); err != nil {
			return nil, nil, err
		}
	}
	return t, rep, nil
}

// runDistCell measures one (tier, shard count) cell against the tier's
// precomputed exact baseline.
func runDistCell(ix *groups.Index, cfg DistConfig, n, s int, exactScore, exactSec float64, opt core.Options) (DistRow, error) {
	row := DistRow{Users: n, Shards: s, ExactScore: exactScore, ExactSec: exactSec}

	start := time.Now()
	plan, err := shard.NewPlan(ix, groups.Config{K: 3}, shard.Options{Shards: s, Seed: uint64(cfg.Seed)})
	if err != nil {
		return row, err
	}
	row.PlanSec = time.Since(start).Seconds()

	res, err := plan.Select(groups.WeightLBS, groups.CoverSingle, cfg.Budget, opt)
	if err != nil {
		return row, err
	}
	row.SelectSec = timeMin(cfg.Repetitions, func() {
		if _, err := plan.Select(groups.WeightLBS, groups.CoverSingle, cfg.Budget, opt); err != nil {
			panic(err)
		}
	})
	row.MergedScore = res.Merged.Score
	row.Candidates = len(res.Candidates)
	if exactScore > 0 {
		row.Ratio = res.Merged.Score / exactScore
	} else {
		row.Ratio = 1
	}
	if row.SelectSec > 0 {
		row.Speedup = exactSec / row.SelectSec
	}

	// Shard-loss degradation: re-merge with each shard's winners withheld
	// (the coordinator's survivor merge) and report the worst coverage ratio.
	if s > 1 {
		inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, cfg.Budget)
		for drop := range res.Winners {
			var survivors []profile.UserID
			for sh, w := range res.Winners {
				if sh != drop {
					survivors = append(survivors, w...)
				}
			}
			merged, err := core.MergeGreedyRule(inst, survivors, cfg.Budget, nil, opt)
			if err != nil {
				return row, err
			}
			ratio := 1.0
			if exactScore > 0 {
				ratio = merged.Score / exactScore
			}
			if row.DegradedRatio == 0 || ratio < row.DegradedRatio {
				row.DegradedRatio = ratio
			}
		}
	}
	return row, nil
}
