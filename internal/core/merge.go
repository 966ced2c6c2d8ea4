package core

import (
	"fmt"
	"slices"

	"podium/internal/groups"
	"podium/internal/profile"
)

// MergeGreedyRule runs the second round of GreeDi-style two-round distributed
// greedy (Mirzasoleiman et al.) under a pluggable rule, nil meaning coverage:
// shard executors each run greedy of size k over their partition of the
// population, and the merge round runs exact greedy of size budget over the
// union of the shard winners. The loop runs on the union's local view —
// the candidates' own rows, each group's members cut to candidates
// (engine.go) — with credits bound to the full instance, so marginals see
// global coverage and weights, and users, marginals and score are
// bit-identical to GreedyRestrictedRule on the union's mask; a merge walks
// candidate links, not the population's. Because every credit-schedule
// objective is monotone submodular (Prop. 4.2 for coverage), the composition
// carries a constant-factor guarantee of the (1−1/e)·(1−1/e) shape.
// Duplicate candidates collapse. Coverage on EBS instances runs the exact
// rank-vector path over the union's mask.
func MergeGreedyRule(inst *groups.Instance, candidates []profile.UserID, budget int, r *Rule, opt Options) (*Result, error) {
	n := inst.Index.Repo().NumUsers()
	cands := make([]int32, len(candidates))
	for i, u := range candidates {
		if int(u) < 0 || int(u) >= n {
			return nil, fmt.Errorf("core: merge candidate %d outside population of %d", u, n)
		}
		cands[i] = int32(u)
	}
	slices.Sort(cands)
	sp := greedySpec{budget: budget, cands: slices.Compact(cands), rule: r, opt: opt}
	if inst.EBS && r.OrDefault().ebsExact {
		sp.cands, sp.allowed = nil, candidateMask(n, sp.cands)
	}
	return greedyRule(inst, sp)
}

// candidateMask folds validated merge candidates into an allowed mask over a
// population of n.
func candidateMask(n int, cands []int32) []bool {
	allowed := make([]bool, n)
	for _, u := range cands {
		allowed[u] = true
	}
	return allowed
}

// MergeProof is the proof-harness record for one instance: the merged
// two-round score against the single-node exact greedy score on the same
// instance and budget. Ratio is Merged/Exact (1 when exact is zero — an
// empty instance trivially merges losslessly).
type MergeProof struct {
	Merged float64
	Exact  float64
	// Ratio = Merged/Exact ∈ [0,1]: the empirical counterpart of the
	// (1−1/e)² composition bound. Greedy itself is a (1−1/e) approximation,
	// so ratio 1.0 means the merge lost nothing relative to single-node
	// greedy, not relative to OPT.
	Ratio float64
}

// ProveMerge runs the harness: the coverage merge round (MergeGreedyRule)
// through the given candidate union vs. single-node greedy on the full
// instance. The dist bench reports the ratio.
func ProveMerge(inst *groups.Instance, candidates []profile.UserID, budget int, opt Options) (*Result, MergeProof, error) {
	merged, err := MergeGreedyRule(inst, candidates, budget, nil, opt)
	if err != nil {
		return nil, MergeProof{}, err
	}
	exact := GreedyOpts(inst, budget, opt)
	p := MergeProof{Merged: merged.Score, Exact: exact.Score, Ratio: 1}
	if exact.Score > 0 {
		p.Ratio = merged.Score / exact.Score
	}
	return merged, p, nil
}
