package core

import (
	"podium/internal/groups"
	"podium/internal/profile"
)

// SelectorState persists the greedy loop's start row across snapshot
// epochs so a steady stream of selections under live writes costs O(Δ) per
// mutation batch instead of O(links) per epoch.
//
// The expensive part of a selection on a fresh epoch is not the greedy loop —
// it is materializing marg_{u,∅} for every user, an O(links) pass (memoized
// per instance by Instance.BaseMarginals, but a mutation batch publishes a
// new instance and the memo starts cold). Those base marginals are a simple
// sum over each user's adjacency row, so a mutation batch invalidates exactly
// the rows of (a) users whose adjacency changed and (b) members of groups
// whose effective weight changed. Sync re-sums only those rows against the
// new epoch's index, which the change records from groups.TakeDelta identify;
// everything else carries over bit for bit.
//
// Bit-identity: BaseMarginals documents that its group-major pass produces,
// per user, exactly the float sum of that user's CSR row in ascending group
// order. Sync's repair recomputes affected rows the same way — ascending
// group order, adding an effective weight of +0.0 for groups with no
// remaining coverage requirement, which is exact for finite partial sums — so
// a repaired base array is bit-identical to a freshly computed one, and the
// greedy loop seeded from a copy of it (engine.go) therefore returns
// bit-identical selections.
// The property tests in incremental_test.go enforce this per mutation batch.
//
// Fallbacks are conservative: EBS instances (whose weights depend on the
// global size order, so any size change can reweight every group), reshaped
// batches (new properties spawning groups), gaps in the change history, and
// deltas touching more than 1/repairMaxFrac of the population all take the
// full-recompute path — which is just BaseMarginals on the new instance, the
// exact state a fresh run would start from.
//
// SelectorState is not safe for concurrent use; the server guards each state
// with its own mutex (one writer syncs, then any number of reads would still
// be sequential per state — selections themselves are cheap once synced).
type SelectorState struct {
	// rule is the selection rule the state repairs for; nil means the default
	// (coverage). Base rows are sums of the rule's *initial credits*, so one
	// state serves exactly one rule — callers key states per rule.
	rule *Rule
	// base is marg_{u,∅} per user under the last synced instance. After a
	// recompute it aliases that instance's memoized BaseMarginals for the
	// default rule (owned == false; the first repair detaches a private copy)
	// and is a private rule-computed slice otherwise.
	base  []float64
	owned bool
	// effW is the effective per-group weight at the last Sync — the rule's
	// initial credit w_G(0); for the default rule that is Wei[g] when
	// Cov[g] > 0, else 0 — the quantity base rows actually sum. Comparing it
	// against the new instance finds every group whose weight moved, however
	// it moved (membership growth under LBS, a new group, a zeroed coverage).
	effW []float64
	// scratch marks affected users during repair, reused across syncs.
	scratch []bool

	// Counters for observability: Sync outcomes and repaired row count.
	Repairs, Recomputes, RepairedUsers uint64
}

// NewSelectorState returns an empty state for the default rule; the first
// Sync recomputes.
func NewSelectorState() *SelectorState { return &SelectorState{} }

// NewSelectorStateRule returns an empty state repairing base marginals for
// the given rule (nil selects the default). Every rule's base rows are plain
// sums of per-group initial credits, so the delta-repair machinery — changed
// rows plus members of credit-shifted groups, re-summed ascending — carries
// over unchanged; only what the rows sum differs.
func NewSelectorStateRule(r *Rule) *SelectorState { return &SelectorState{rule: r} }

// repairMaxFrac bounds the repair path: when a delta touches more than
// users/repairMaxFrac rows, re-summing them one row at a time approaches the
// cost of the single group-major BaseMarginals pass (which walks each link
// exactly once with better locality), so Sync falls back to recompute.
const repairMaxFrac = 4

// Sync brings the state up to date with inst — the instance built over the
// epoch the caller is about to select against. changed lists the users whose
// adjacency changed since the previous Sync (the union of Delta.Users over
// the intervening batches); force requests a full recompute regardless (set
// it when the intervening batches reshaped the group structure, or when the
// change history has a gap). It returns true when the delta-repair path was
// taken and false when the state was fully recomputed.
func (st *SelectorState) Sync(inst *groups.Instance, changed []profile.UserID, force bool) (repaired bool) {
	ix := inst.Index
	n := ix.Repo().NumUsers()
	nG := ix.NumGroups()

	// Effective weights under the new instance: the rule's initial credits.
	// (For the default rule this computes Wei[g] when Cov[g] > 0, else 0 —
	// the historical quantity, float for float.)
	var newEff []float64
	if inst.EBS {
		newEff = make([]float64, nG)
	} else {
		newEff = st.rule.OrDefault().initialCredits(inst)
	}

	if force || inst.EBS || st.base == nil || len(st.base) > n {
		st.recompute(inst, newEff)
		return false
	}

	csr := ix.CSR()
	oldN := len(st.base)
	if cap(st.scratch) < n {
		st.scratch = make([]bool, n)
	}
	mark := st.scratch[:n]
	for i := range mark {
		mark[i] = false
	}
	affected := n - oldN // new users always need their rows summed
	limit := n / repairMaxFrac
	over := affected > limit

	// Users whose adjacency changed.
	for _, u := range changed {
		if over {
			break
		}
		if int(u) < oldN && !mark[u] {
			mark[u] = true
			affected++
			over = affected > limit
		}
	}
	// Members of groups whose effective weight changed (covers LBS size
	// drift, groups created by the batch, and any coverage flip).
	for g := 0; g < nG && !over; g++ {
		var old float64
		if g < len(st.effW) {
			old = st.effW[g]
		}
		if newEff[g] == old {
			continue
		}
		for _, m := range csr.Members(groups.GroupID(g)) {
			if int(m) < oldN && !mark[m] {
				mark[m] = true
				affected++
				if over = affected > limit; over {
					break
				}
			}
		}
	}
	if over {
		st.recompute(inst, newEff)
		return false
	}

	// Detach (or grow) the private base array, then re-sum the marked rows
	// in ascending group order — the BaseMarginals float order.
	if !st.owned || len(st.base) < n {
		nb := make([]float64, n)
		copy(nb, st.base)
		st.base = nb
		st.owned = true
	}
	for u := oldN; u < n; u++ {
		mark[u] = true
	}
	for u := 0; u < n; u++ {
		if !mark[u] {
			continue
		}
		var m float64
		for _, g := range csr.UserGroups(profile.UserID(u)) {
			m += newEff[g]
		}
		st.base[u] = m
		st.RepairedUsers++
	}
	st.effW = newEff
	st.Repairs++
	return true
}

// recompute resets the state from the rule's base marginals — for the
// default rule the instance's memoized BaseMarginals (aliased, not copied),
// for other rules a fresh rule-computed slice the state owns.
func (st *SelectorState) recompute(inst *groups.Instance, newEff []float64) {
	r := st.rule.OrDefault()
	switch {
	case inst.EBS:
		// EBS float weights overflow; the base array is never consulted
		// (Select routes EBS to the exact rank-vector path).
		st.base, st.owned = nil, false
	case r.def:
		st.base, st.owned = inst.BaseMarginals(), false
	default:
		st.base, st.owned = r.baseFrom(inst, nil), true
	}
	st.effW = newEff
	st.Recomputes++
}

// Select runs the greedy loop under the state's rule, starting from a copy
// of the synced base (the base itself is never written, so every later
// select reuses it). The caller must have Synced against the same inst. The
// result is bit-identical to a fresh GreedyRule run on inst. EBS instances
// keep no base and run unseeded: coverage takes the exact path, and other
// rules must be EBS-compatible (rule-aware callers gate EBS upstream).
func (st *SelectorState) Select(inst *groups.Instance, budget int, opt Options) *Result {
	sp := greedySpec{budget: budget, rule: st.rule, opt: opt}
	if len(st.base) == inst.Index.Repo().NumUsers() {
		sp.seed = st.base
	}
	return greedy(inst, sp)
}
