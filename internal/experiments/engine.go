package experiments

import (
	"fmt"
	"runtime"
	"time"

	"podium/internal/core"
	"podium/internal/groups"
)

// EngineConfig parameterizes the selection-engine benchmark suite. The suite
// reuses the Figure 5 scalability workload (population sweep, ~200-property
// profiles, LBS/Single) but times the selection core against its own seed
// rather than Podium against the baselines: the preserved seed
// implementation (core.ReferenceGreedy), the greedy loop sequentially, and —
// when more than one CPU runs — the loop at Parallelism workers.
type EngineConfig struct {
	Seed   int64
	Budget int
	// UserCounts is the population sweep (defaults to the Figure 5 sizes).
	UserCounts []int
	// Parallelism is the worker count of the parallel variant (0 = NumCPU).
	Parallelism int
	// Repetitions per timing; the minimum is reported (defaults to 3).
	Repetitions int
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Budget <= 0 {
		c.Budget = 8
	}
	if len(c.UserCounts) == 0 {
		c.UserCounts = []int{250, 500, 1000, 2000, 4000}
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 3
	}
	return c
}

// EngineRow is one population size's timings, in seconds.
type EngineRow struct {
	Users  int `json:"users"`
	Groups int `json:"groups"`
	// Links is |{(u,G) : u ∈ G}| — the CSR adjacency size.
	Links        int     `json:"links"`
	ReferenceSec float64 `json:"reference_sec"`
	EngineSeqSec float64 `json:"engine_seq_sec"`
	// EngineParSec and SpeedupPar are omitted when only one CPU ran: a
	// one-core "parallel speedup" measures nothing.
	EngineParSec   float64 `json:"engine_par_sec,omitempty"`
	SpeedupSeq     float64 `json:"speedup_seq"`
	SpeedupPar     float64 `json:"speedup_par,omitempty"`
	IdenticalToRef bool    `json:"identical_to_reference"`
}

// EngineReport is the machine-readable result of the suite, serialized to
// BENCH_selection.json so future PRs have a perf trajectory to regress
// against. Speedups are relative to the seed sequential greedy.
type EngineReport struct {
	Suite       string      `json:"suite"`
	Workload    string      `json:"workload"`
	Budget      int         `json:"budget"`
	Seed        int64       `json:"seed"`
	Parallelism int         `json:"parallelism"`
	NumCPU      int         `json:"num_cpu"`
	Rows        []EngineRow `json:"rows"`
	// MinSpeedupPar is the worst parallel-engine speedup across the sweep —
	// the regression gate; omitted with the parallel variant.
	MinSpeedupPar float64 `json:"min_speedup_par,omitempty"`
}

// timeMin returns the fastest observed run of f: at least reps runs, and —
// because the small sweep sizes finish in ~0.1ms where scheduler noise
// dominates a single run — it keeps repeating until ~30ms have been spent or
// a cap is reached, whichever is later.
func timeMin(reps int, f func()) float64 {
	const (
		window  = 30 * time.Millisecond
		maxRuns = 500
	)
	best := 0.0
	total := time.Duration(0)
	for i := 0; i < maxRuns && (i < reps || total < window); i++ {
		start := time.Now()
		f()
		d := time.Since(start)
		total += d
		if s := d.Seconds(); i == 0 || s < best {
			best = s
		}
	}
	return best
}

// RunEngineSuite benchmarks the selection engine's strategies on the Figure 5
// workload and returns both the rendered table and the JSON report.
func RunEngineSuite(cfg EngineConfig) (*Table, *EngineReport) {
	cfg = cfg.withDefaults()
	const (
		mRef  = "Reference (seed)"
		mSeq  = "Engine seq"
		mSpdS = "Speedup (ref/seq)"
		mPar  = "Engine par"
		mSpdP = "Speedup (ref/par)"
	)
	multi := runtime.GOMAXPROCS(0) > 1 && cfg.Parallelism > 1
	t := &Table{
		Title:   fmt.Sprintf("Selection engine on the Fig. 5 workload (seconds; parallelism=%d)", cfg.Parallelism),
		Metrics: []string{mRef, mSeq, mSpdS},
	}
	if multi {
		t.Metrics = append(t.Metrics, mPar, mSpdP)
	}
	rep := &EngineReport{
		Suite:       "engine",
		Workload:    "fig5-scalability-users",
		Budget:      cfg.Budget,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
		NumCPU:      runtime.NumCPU(),
	}
	for _, n := range cfg.UserCounts {
		ds := scaleDataset(cfg.Seed, n, 200)
		ix := groups.Build(ds.Repo, groups.Config{K: 3})
		inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, cfg.Budget)
		par := core.Options{Parallelism: cfg.Parallelism}
		seq := core.Options{Parallelism: 1}

		// Warm every path once (also verifies output identity outside timing).
		want := core.ReferenceGreedy(inst, cfg.Budget, nil)
		identical := sameSelection(want, core.GreedyOpts(inst, cfg.Budget, seq))
		if multi {
			identical = identical && sameSelection(want, core.GreedyOpts(inst, cfg.Budget, par))
		}

		row := EngineRow{
			Users:          ix.Repo().NumUsers(),
			Groups:         ix.NumGroups(),
			Links:          ix.CSR().NumLinks(),
			IdenticalToRef: identical,
		}
		row.ReferenceSec = timeMin(cfg.Repetitions, func() { core.ReferenceGreedy(inst, cfg.Budget, nil) })
		row.EngineSeqSec = timeMin(cfg.Repetitions, func() { core.GreedyOpts(inst, cfg.Budget, seq) })
		if row.EngineSeqSec > 0 {
			row.SpeedupSeq = row.ReferenceSec / row.EngineSeqSec
		}
		vals := map[string]float64{mRef: row.ReferenceSec, mSeq: row.EngineSeqSec, mSpdS: row.SpeedupSeq}
		if multi {
			row.EngineParSec = timeMin(cfg.Repetitions, func() { core.GreedyOpts(inst, cfg.Budget, par) })
			if row.EngineParSec > 0 {
				row.SpeedupPar = row.ReferenceSec / row.EngineParSec
			}
			if rep.MinSpeedupPar == 0 || row.SpeedupPar < rep.MinSpeedupPar {
				rep.MinSpeedupPar = row.SpeedupPar
			}
			vals[mPar], vals[mSpdP] = row.EngineParSec, row.SpeedupPar
		}
		rep.Rows = append(rep.Rows, row)
		t.Rows = append(t.Rows, Row{Name: fmt.Sprintf("|U|=%d", n), Values: vals})
	}
	return t, rep
}

// sameSelection checks user-order, marginal and score identity.
func sameSelection(a, b *core.Result) bool {
	if len(a.Users) != len(b.Users) || a.Score != b.Score {
		return false
	}
	for i := range a.Users {
		if a.Users[i] != b.Users[i] || a.Marginals[i] != b.Marginals[i] {
			return false
		}
	}
	return true
}
