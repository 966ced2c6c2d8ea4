package core

import (
	"podium/internal/groups"
	"podium/internal/profile"
)

// ReferenceGreedy is the pre-engine implementation of Algorithm 1, preserved
// verbatim: a boolean candidate mask over all n users, a full-population
// argmax scan per pick, and adjacency walked through the mutable
// [][]GroupID / *Group.Members representation. It exists for two reasons:
// the equivalence property tests use it as the oracle the CSR engine must
// match bit for bit, and the podium-bench `engine` suite uses it as the
// fixed baseline that BENCH_selection.json speedups are measured against, so
// the perf trajectory stays anchored to the seed implementation across PRs.
// EBS instances route to the shared exact rank-vector path, as the seed did.
func ReferenceGreedy(inst *groups.Instance, budget int, allowed []bool) *Result {
	if inst.EBS {
		return ebsGreedy(inst, budget, allowed, nil)
	}
	ix := inst.Index
	n := ix.Repo().NumUsers()
	res := &Result{}
	if budget <= 0 || n == 0 {
		return res
	}

	marg := make([]float64, n)
	candidate := make([]bool, n)
	numCandidates := 0
	for u := 0; u < n; u++ {
		if allowed != nil && !allowed[u] {
			continue
		}
		candidate[u] = true
		numCandidates++
		gs := ix.UserGroups(profile.UserID(u))
		res.Evaluations += len(gs)
		for _, g := range gs {
			if inst.Cov[g] > 0 {
				marg[u] += inst.Wei[g]
			}
		}
	}

	cov := make([]int, len(inst.Cov))
	copy(cov, inst.Cov)

	for i := 0; i < budget; i++ {
		if numCandidates == 0 {
			break
		}
		best := -1
		for u := 0; u < n; u++ {
			if candidate[u] && (best < 0 || marg[u] > marg[best]) {
				best = u
			}
		}
		candidate[best] = false
		numCandidates--
		res.Users = append(res.Users, profile.UserID(best))
		res.Marginals = append(res.Marginals, marg[best])
		res.Score += marg[best]
		for _, g := range ix.UserGroups(profile.UserID(best)) {
			if cov[g] <= 0 {
				continue
			}
			cov[g]--
			if cov[g] == 0 {
				w := inst.Wei[g]
				for _, member := range ix.Group(g).Members {
					if candidate[member] {
						marg[member] -= w
						res.Evaluations++
					}
				}
			}
		}
	}
	return res
}
