package core

import (
	"podium/internal/groups"
	"podium/internal/profile"
)

// ebsGreedy is Algorithm 1 specialized to EBS weights, computed exactly.
//
// EBS sets wei(G) = (B+1)^ord(G) (Definition 3.6), which overflows float64
// once a repository has more than a few hundred groups. But exact arithmetic
// is unnecessary: a user's marginal contribution is a sum of *distinct*
// powers of (B+1) — one per unsaturated group the user belongs to, and group
// ranks are unique — so each marginal is exactly a 0/1 digit vector in base
// (B+1), indexed by rank. Comparing two marginals is comparing bitsets from
// the highest rank down. No big-integer arithmetic, no precision loss.
//
// t0, when non-nil, resumes from a partial panel: group g's requirement
// starts reduced by the t0[g] hits the panel already provides.
func ebsGreedy(inst *groups.Instance, budget int, allowed []bool, t0 []int) *Result {
	ix := inst.Index
	n := ix.Repo().NumUsers()
	res := &Result{}
	if budget <= 0 || n == 0 {
		return res
	}
	if inst.EBSRank == nil {
		panic("core: EBS instance without ranks")
	}
	numGroups := ix.NumGroups()
	words := (numGroups + 63) / 64

	cov := make([]int, len(inst.Cov))
	copy(cov, inst.Cov)
	for g := range t0 {
		cov[g] = max(0, cov[g]-t0[g])
	}

	marg := make([]rankBits, n)
	candidate := make([]bool, n)
	numCandidates := 0
	for u := 0; u < n; u++ {
		if allowed != nil && !allowed[u] {
			continue
		}
		candidate[u] = true
		numCandidates++
		marg[u] = make(rankBits, words)
		gs := ix.UserGroups(profile.UserID(u))
		res.Evaluations += len(gs)
		for _, g := range gs {
			if cov[g] > 0 {
				marg[u].set(inst.EBSRank[g])
			}
		}
	}

	for i := 0; i < budget; i++ {
		if numCandidates == 0 {
			break
		}
		best := -1
		for u := 0; u < n; u++ {
			if candidate[u] && (best < 0 || marg[best].less(marg[u])) {
				best = u
			}
		}
		candidate[best] = false
		numCandidates--
		res.Users = append(res.Users, profile.UserID(best))
		// Marginals are reported in the (possibly overflowing) float scale
		// for display; the selection itself never used floats.
		var m float64
		for _, g := range ix.UserGroups(profile.UserID(best)) {
			if cov[g] > 0 {
				m += inst.Wei[g]
			}
		}
		res.Marginals = append(res.Marginals, m)
		res.Score += m
		for _, g := range ix.UserGroups(profile.UserID(best)) {
			if cov[g] <= 0 {
				continue
			}
			cov[g]--
			if cov[g] == 0 {
				r := inst.EBSRank[g]
				for _, member := range ix.Group(g).Members {
					if candidate[member] {
						marg[member].clear(r)
						res.Evaluations++
					}
				}
			}
		}
	}
	return res
}

// rankBits is a fixed-width bitset over group ranks.
type rankBits []uint64

func (b rankBits) set(i int)   { b[i/64] |= 1 << uint(i%64) }
func (b rankBits) clear(i int) { b[i/64] &^= 1 << uint(i%64) }

// less reports whether b < other as base-(B+1) numbers, i.e. comparing from
// the highest rank down.
func (b rankBits) less(other rankBits) bool {
	for w := len(b) - 1; w >= 0; w-- {
		if b[w] != other[w] {
			return b[w] < other[w]
		}
	}
	return false
}
