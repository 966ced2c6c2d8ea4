package core

import (
	"math/rand"
	"slices"
	"sync"
	"time"

	"podium/internal/groups"
	"podium/internal/profile"
)

// This file is the one greedy loop behind every float-weight selection:
// Algorithm 1 driven by a rule's credit schedule (rules.go). Every entry
// point — plain, restricted, top-up from a partial panel, custom, noisy, the
// SelectorState's seeded cache-miss path, and the GreeDi merge on its
// candidates' local view — builds a greedySpec and calls greedy; only
// coverage on EBS instances leaves it, for the exact rank-vector path
// (ebs.go). It runs Algorithm 1 with these engine-level changes, none of
// which alters output:
//
//  1. Adjacency is read from the Index's frozen CSR view — contiguous
//     user→groups and group→members rows — so every hot loop is a linear
//     scan without pointer chasing.
//
//  2. Candidates live in a compacted ascending list rather than a boolean
//     mask over all n users. The per-pick argmax touches only the remaining
//     |𝒰′| candidates, which matters when customization refines the
//     population to a small 𝒰′ (custom.go) and late in large selections.
//     A merge (merge.go) also cuts the adjacency: it runs on a local CSR
//     view (localCSR) holding only its candidates' rows, renumbered
//     0..k−1 in ascending global order, with each group's member row cut to
//     candidates, so retraction walks candidate links instead of every
//     member of a moved group. Credits stay bound to the full instance, and
//     the picks map back to global IDs after the loop.
//
//  3. The start row marg_{u,·} is an O(n) copy where one exists: of
//     Instance.BaseMarginals (memoized per instance, so per epoch on the
//     server) for the coverage rule, of Instance.RuleBase (memoized per
//     instance and rule) for the other rules, or of a seed: a
//     SelectorState's delta-repaired base, or a customized select's tiered
//     row derived from its base instance's memo (custom.go). Runs from
//     start positions (a partial panel's hits) sum it afresh
//     (Rule.baseFrom), and a local view sums each candidate's row of
//     w_G(0). Every summed start adds each user's CSR row in ascending group
//     order, so all of them produce the same floats; the derived tiered row
//     matches them because its exactness gate admits only integer sums
//     below 2^52.
//
//  4. Per group the loop tracks only the selected-member count. When a pick
//     moves a group down its schedule, the credit drop is retracted from
//     every member's marginal — one subtraction per (group,
//     member), groups in the picked user's ascending row order. For coverage
//     the drop is wei(G), once, at saturation. Members no longer candidates
//     are retracted too (their marginals are never read again), which keeps
//     the per-member candidacy branch out of the hot loop.
//
//  5. With Options.Parallelism > 1, the argmax and retraction loops shard
//     across workers. Shards are contiguous index ranges, each worker reports
//     a local (marginal, lowest-index) best, and the reduction scans shards in
//     ascending order accepting only strictly greater marginals — exactly the
//     total order the sequential scan implies. Sharded retraction performs
//     the same subtractions on disjoint members, so floats are unchanged.
//
// Result.Evaluations counts the member links retraction walks: on a local
// view, candidate links only.

// engineParallelCutoff is the element count below which sharding a loop is
// not worth the goroutine fan-out. A package variable so the equivalence
// tests can force the sharded paths on tiny instances.
var engineParallelCutoff = 256

// greedySpec is one run of the greedy loop.
type greedySpec struct {
	budget  int
	allowed []bool // nil: every user is a candidate
	// cands, when non-nil, is the whole candidate set, distinct and
	// ascending: the loop then runs on the candidates' local view
	// (localCSR) instead of the population, and allowed is unused.
	cands []int32
	rule  *Rule // nil: coverage
	opt   Options
	// The start point; both nil starts from the empty selection. t0[g]
	// pre-advances group g's schedule by t0[g] selected members (a partial
	// panel's hits). seed is the rule's empty-selection base row (a
	// SelectorState's repaired base, or a customized select's derived tiered
	// row), copied, never written. At most one is set.
	t0   []int
	seed []float64
	// rng, when set, breaks argmax ties uniformly at random (NoisyGreedy),
	// drawing in ascending candidate order; it forces a sequential scan.
	rng *rand.Rand
}

// greedy runs the loop described above on inst.
func greedy(inst *groups.Instance, sp greedySpec) *Result {
	r := sp.rule.OrDefault()
	if inst.EBS && r.ebsExact {
		return ebsGreedy(inst, sp.budget, sp.allowed, sp.t0)
	}
	ix := inst.Index
	n := ix.Repo().NumUsers()
	res := &Result{}
	if sp.budget <= 0 || n == 0 {
		return res
	}
	workers := sp.opt.workerCount()
	// Credits bind to the full instance even on a local view, so weights
	// and dominance constants are the population's, not the candidates'.
	credit := r.credits(inst)

	// Optional stage clock. All timing sites guard on tim != nil, so the
	// uninstrumented path pays one predictable branch per stage boundary.
	tim := sp.opt.Timings
	var t0 time.Time
	if tim != nil {
		tim.Runs++
		t0 = time.Now()
	}

	// Compacted candidate list 𝒰′, ascending so scans inherit the
	// lowest-index tie-break. On a local view the loop's user IDs are
	// positions in sp.cands, which ascend in global order too.
	csr := ix.CSR()
	var cand []int32
	if sp.cands != nil {
		csr = localCSR(csr, ix.NumGroups(), sp.cands)
		cand = make([]int32, len(sp.cands))
		for i := range cand {
			cand[i] = int32(i)
		}
	} else {
		cand = make([]int32, 0, n)
		for u := 0; u < n; u++ {
			if sp.allowed == nil || sp.allowed[u] {
				cand = append(cand, int32(u))
			}
		}
	}
	if len(cand) == 0 {
		return res
	}

	// marg is assigned once: the sharded retraction closure captures it, and
	// a reassigned captured variable moves to the heap, costing the hot
	// loops an indirection.
	marg := sp.startRow(inst, r, csr, credit)

	// Selected members per group: each group's position on its schedule.
	cnt := make([]int, ix.NumGroups())
	copy(cnt, sp.t0)

	// The selection size is known up front; pre-sizing the result slices
	// keeps the pick loop allocation-free.
	picks := min(sp.budget, len(cand))
	res.Users = make([]profile.UserID, 0, picks)
	res.Marginals = make([]float64, 0, picks)

	if tim != nil {
		tim.InitNs += time.Since(t0).Nanoseconds()
	}

	for i := 0; i < sp.budget && len(cand) > 0; i++ {
		// Line 5: arg max marginal over the candidate list.
		if tim != nil {
			tim.Picks++
			t0 = time.Now()
		}
		var bi int
		switch {
		case sp.rng != nil:
			bi = randomTieArgmax(cand, marg, sp.rng)
		case workers > 1 && len(cand) >= engineParallelCutoff:
			bi = parallelArgmax(cand, marg, workers, tim)
		default:
			bm := marg[cand[0]]
			for j := 1; j < len(cand); j++ {
				if marg[cand[j]] > bm {
					bm = marg[cand[j]]
					bi = j
				}
			}
		}
		if tim != nil {
			tim.ArgmaxNs += time.Since(t0).Nanoseconds()
		}
		best := int(cand[bi])
		// Line 6: move best from 𝒰 to U, keeping the list ascending.
		cand = append(cand[:bi], cand[bi+1:]...)
		res.Users = append(res.Users, profile.UserID(best))
		res.Marginals = append(res.Marginals, marg[best])
		res.Score += marg[best]

		// Lines 7-10: advance each of best's groups one schedule step and
		// retract the credit drop from the group's members.
		if tim != nil {
			t0 = time.Now()
		}
		for _, g := range csr.UserGroups(profile.UserID(best)) {
			t := cnt[g]
			cnt[g] = t + 1
			w, nw := credit(int(g), t), credit(int(g), t+1)
			if nw == w {
				continue
			}
			d := w - nw
			members := csr.Members(g)
			res.Evaluations += len(members)
			if workers > 1 && len(members) >= engineParallelCutoff {
				shardRange(len(members), workers, func(lo, hi int) {
					for _, m := range members[lo:hi] {
						marg[m] -= d
					}
				})
			} else {
				for _, m := range members {
					marg[m] -= d
				}
			}
		}
		if tim != nil {
			tim.RetractNs += time.Since(t0).Nanoseconds()
		}
	}
	if sp.cands != nil {
		// Map the view's picks back to the population.
		for i, u := range res.Users {
			res.Users[i] = profile.UserID(sp.cands[u])
		}
	}
	return res
}

// startRow returns a private copy of the marginals before the first pick:
// the sums of a local view's rows, the seed, the instance's memoized base
// row for the rule, or a fresh rule sum from start positions. The seed and
// the memo are shared (by every later select on a state, by concurrent
// requests on an epoch), so they are copied, never written.
func (sp *greedySpec) startRow(inst *groups.Instance, r *Rule, csr *groups.CSR, credit creditFunc) []float64 {
	var shared []float64
	switch {
	case sp.cands != nil:
		// Each row of w_G(0) in ascending group order: per user, the float
		// order of Rule.baseFrom and Instance.BaseMarginals, so the view
		// starts from their bits (adding a zero credit is exact).
		marg := make([]float64, csr.NumUsers())
		for u := range marg {
			for _, g := range csr.UserGroups(profile.UserID(u)) {
				marg[u] += credit(int(g), 0)
			}
		}
		return marg
	case sp.seed != nil:
		shared = sp.seed
	case sp.t0 != nil:
		return r.baseFrom(inst, sp.t0)
	case r.def:
		shared = inst.BaseMarginals()
	default:
		shared = inst.RuleBase(r.name, func() []float64 { return r.baseFrom(inst, nil) })
	}
	marg := make([]float64, len(shared))
	copy(marg, shared)
	return marg
}

// localCSR is the candidates' view of csr: row i is candidate cands[i]'s
// row, with global group IDs, so schedules and credits stay the instance's;
// each group's member row lists the positions of its candidate members,
// ascending because cands ascends. Groups no candidate joins keep empty rows.
func localCSR(csr *groups.CSR, numGroups int, cands []int32) *groups.CSR {
	v := &groups.CSR{UserOff: make([]int, len(cands)+1), GroupOff: make([]int, numGroups+1)}
	for i, u := range cands {
		v.UserOff[i+1] = v.UserOff[i] + csr.UserDegree(profile.UserID(u))
	}
	v.UserAdj = make([]groups.GroupID, 0, v.UserOff[len(cands)])
	for _, u := range cands {
		row := csr.UserGroups(profile.UserID(u))
		v.UserAdj = append(v.UserAdj, row...)
		for _, g := range row {
			v.GroupOff[g+1]++
		}
	}
	for g := 0; g < numGroups; g++ {
		v.GroupOff[g+1] += v.GroupOff[g]
	}
	next := slices.Clone(v.GroupOff[:numGroups])
	v.GroupAdj = make([]profile.UserID, len(v.UserAdj))
	for i := range cands {
		for _, g := range v.UserGroups(profile.UserID(i)) {
			v.GroupAdj[next[g]] = profile.UserID(i)
			next[g]++
		}
	}
	return v
}

// randomTieArgmax returns the position in cand of a greatest marginal,
// chosen uniformly among ties by reservoir sampling over an ascending scan:
// the k-th tied candidate replaces the incumbent with probability 1/k.
func randomTieArgmax(cand []int32, marg []float64, rng *rand.Rand) int {
	bi, ties := 0, 1
	bm := marg[cand[0]]
	for j := 1; j < len(cand); j++ {
		switch v := marg[cand[j]]; {
		case v > bm:
			bm, bi, ties = v, j, 1
		case v == bm:
			ties++
			if rng.Intn(ties) == 0 {
				bi = j
			}
		}
	}
	return bi
}

// shardRange splits [0,n) into at most `workers` contiguous chunks and runs
// body(lo,hi) on each concurrently, returning when all are done. Chunks are
// disjoint, so bodies writing to distinct per-element slots do not race.
func shardRange(n, workers int, body func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// parallelArgmax returns the position in cand of the candidate with the
// greatest marginal, ties toward the lowest user index. Each worker scans a
// contiguous shard ascending with a strictly-greater comparison; the
// reduction visits shards in ascending order with the same strictly-greater
// rule, so the winner is identical to a single ascending scan. tim, when
// non-nil, accrues the reduction's cost as the merge stage.
func parallelArgmax(cand []int32, marg []float64, workers int, tim *StageTimings) int {
	n := len(cand)
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	type localBest struct {
		idx int
		val float64
	}
	bests := make([]localBest, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		bests = append(bests, localBest{idx: -1})
	}
	var wg sync.WaitGroup
	shard := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			bi := lo
			bm := marg[cand[lo]]
			for j := lo + 1; j < hi; j++ {
				if marg[cand[j]] > bm {
					bm = marg[cand[j]]
					bi = j
				}
			}
			bests[shard] = localBest{idx: bi, val: bm}
		}(shard, lo, hi)
		shard++
	}
	wg.Wait()
	var t0 time.Time
	if tim != nil {
		t0 = time.Now()
	}
	best := bests[0]
	for _, b := range bests[1:] {
		if b.val > best.val {
			best = b
		}
	}
	if tim != nil {
		tim.MergeNs += time.Since(t0).Nanoseconds()
	}
	return best.idx
}
