package experiments

import (
	"fmt"
	"runtime"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/synth"
)

// RulesConfig parameterizes the selection-rule suite: every registered rule
// timed on the same prepared instance at each population tier, with the
// coverage/fairness trade-off each rule's credit schedule buys. Tiers default
// to 10K/100K users, matching the scale suite, so per-rule latency lands on
// the same axes as the columnar datapath numbers.
type RulesConfig struct {
	Seed   int64
	Budget int
	// Tiers is the population sweep (defaults to 10K and 100K users).
	Tiers []int
	// Parallelism of the timed selects (0 = NumCPU).
	Parallelism int
	// Repetitions per timing; the minimum is reported (defaults to 3).
	Repetitions int
}

func (c RulesConfig) withDefaults() RulesConfig {
	if c.Budget <= 0 {
		c.Budget = 8
	}
	if len(c.Tiers) == 0 {
		c.Tiers = []int{10000, 100000}
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 3
	}
	return c
}

// RulesRow is one (tier, rule) measurement.
type RulesRow struct {
	Users int    `json:"users"`
	Rule  string `json:"rule"`
	// Default marks the registry default (coverage) — the row every other
	// rule in the tier is traded off against.
	Default bool `json:"default,omitempty"`
	// SelectSec is one selection under the rule on a prepared instance
	// (base marginals memoized), minimum over Repetitions.
	SelectSec float64 `json:"select_sec"`
	// VsDefault divides SelectSec by the tier's default-rule SelectSec:
	// the latency cost of asking for a non-default objective.
	VsDefault float64 `json:"vs_default"`
	// Score is the paper's coverage objective score_𝒢 of the rule's picks —
	// NOT the rule's own credit sum — so rules are comparable on one axis.
	Score float64 `json:"score"`
	// CoverageFrac normalizes Score by the instance's MaxScore ceiling.
	CoverageFrac float64 `json:"coverage_frac"`
	// FairnessFrac is the fraction of coverable groups (cov(G) > 0) with at
	// least one selected member — the breadth axis rules like fairness-floor
	// and maxcov optimize at the expense of weighted coverage depth.
	FairnessFrac float64 `json:"fairness_frac"`
	// GroupsCovered / GroupsCoverable are FairnessFrac's raw counts.
	GroupsCovered   int `json:"groups_covered"`
	GroupsCoverable int `json:"groups_coverable"`
}

// RulesReport is serialized to BENCH_rules.json: the per-rule latency and
// trade-off trajectory future PRs regress against.
type RulesReport struct {
	Suite       string `json:"suite"`
	Dataset     string `json:"dataset"`
	Budget      int    `json:"budget"`
	Seed        int64  `json:"seed"`
	Parallelism int    `json:"parallelism"`
	NumCPU      int    `json:"num_cpu"`
	// Rules lists the registry order the rows cycle through.
	Rules []string   `json:"rules"`
	Rows  []RulesRow `json:"rows"`
	// MaxVsDefault is the worst per-rule latency multiple over the default
	// rule across the sweep — the headline cost of objective pluggability.
	MaxVsDefault float64 `json:"max_vs_default"`
	// MinDefaultCoverageFrac tracks the default rule's normalized score so
	// regressions in the baseline objective are visible alongside the rules.
	MinDefaultCoverageFrac float64 `json:"min_default_coverage_frac"`
}

// RunRulesSuite times every registered selection rule per tier and reports
// each rule's coverage/fairness trade-off. Selections run on the scale
// dataset's LBS/Single instance — the same shape the server serves — with
// base marginals pre-memoized, so the timings isolate the rule's credit
// schedule from snapshot preparation.
func RunRulesSuite(cfg RulesConfig) (*Table, *RulesReport, error) {
	cfg = cfg.withDefaults()
	names := core.RuleNames()

	t := &Table{
		Title:   fmt.Sprintf("Selection rules (budget=%d, parallelism=%d)", cfg.Budget, cfg.Parallelism),
		Metrics: []string{"Select (ms)", "Vs default", "Coverage frac", "Fairness frac"},
	}
	rep := &RulesReport{
		Suite:       "rules",
		Dataset:     "scale (profiles-only synthetic)",
		Budget:      cfg.Budget,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
		NumCPU:      runtime.NumCPU(),
		Rules:       names,
	}

	for _, n := range cfg.Tiers {
		rows, err := runRulesTier(cfg, n)
		if err != nil {
			return nil, nil, err
		}
		for _, row := range rows {
			rep.Rows = append(rep.Rows, row)
			if row.VsDefault > rep.MaxVsDefault {
				rep.MaxVsDefault = row.VsDefault
			}
			if row.Default && (rep.MinDefaultCoverageFrac == 0 || row.CoverageFrac < rep.MinDefaultCoverageFrac) {
				rep.MinDefaultCoverageFrac = row.CoverageFrac
			}
			t.Rows = append(t.Rows, Row{
				Name: fmt.Sprintf("|U|=%d %s", n, row.Rule),
				Values: map[string]float64{
					"Select (ms)":   row.SelectSec * 1e3,
					"Vs default":    row.VsDefault,
					"Coverage frac": row.CoverageFrac,
					"Fairness frac": row.FairnessFrac,
				},
			})
		}
	}
	return t, rep, nil
}

func runRulesTier(cfg RulesConfig, n int) ([]RulesRow, error) {
	ds := synth.Generate(synth.ScaleLike(n))
	ix := groups.Build(ds.Repo, groups.Config{K: 3})
	ix.Freeze()
	inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, cfg.Budget)
	inst.BaseMarginals() // memoize, as the server's per-epoch instance cache does
	maxScore := inst.MaxScore()
	coverable := 0
	for g := range inst.Cov {
		if inst.Cov[g] > 0 {
			coverable++
		}
	}

	opt := core.Options{Parallelism: cfg.Parallelism}
	var rows []RulesRow
	var defaultSec float64
	for _, name := range core.RuleNames() {
		rule := core.MustRule(name)
		row := RulesRow{Users: n, Rule: name, Default: rule.IsDefault()}

		// Every rule runs the same greedy loop, so VsDefault charges only
		// the credit schedule and the per-request base-row sum.
		var users []profile.UserID
		sel := func() {
			res, err := core.GreedyRule(inst, cfg.Budget, rule, opt)
			if err != nil {
				panic(err)
			}
			users = res.Users
		}
		sel() // warm
		row.SelectSec = timeMin(cfg.Repetitions, sel)
		if rule.IsDefault() {
			defaultSec = row.SelectSec
		}
		if defaultSec > 0 {
			row.VsDefault = row.SelectSec / defaultSec
		}

		row.Score = inst.Score(users)
		if maxScore > 0 {
			row.CoverageFrac = row.Score / maxScore
		}
		seen := make(map[groups.GroupID]bool)
		for _, u := range users {
			for _, g := range inst.Index.UserGroups(u) {
				if inst.Cov[g] > 0 {
					seen[g] = true
				}
			}
		}
		row.GroupsCovered = len(seen)
		row.GroupsCoverable = coverable
		if coverable > 0 {
			row.FairnessFrac = float64(len(seen)) / float64(coverable)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
