package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"podium/internal/groups"
	"podium/internal/profile"
)

// Feedback is a client's customization feedback (Definition 6.1): four group
// subsets steering selection.
type Feedback struct {
	// MustHave is 𝒢₊: every selected user must, for each property appearing
	// here, belong to at least one of that property's listed buckets.
	MustHave []groups.GroupID
	// MustNot is 𝒢₋: selected users may belong to none of these groups.
	MustNot []groups.GroupID
	// Priority is 𝒢_d: groups whose coverage dominates all others.
	Priority []groups.GroupID
	// Standard is 𝒢_d?: groups covered with secondary priority. When
	// StandardExplicit is false the paper's default applies: all groups not
	// in Priority. Groups in neither set are ignored for coverage.
	Standard         []groups.GroupID
	StandardExplicit bool
}

// Validate checks every referenced group exists in the index.
func (f Feedback) Validate(ix *groups.Index) error {
	check := func(name string, ids []groups.GroupID) error {
		for _, id := range ids {
			if id < 0 || int(id) >= ix.NumGroups() {
				return fmt.Errorf("core: feedback %s references unknown group %d", name, id)
			}
		}
		return nil
	}
	if err := check("MustHave", f.MustHave); err != nil {
		return err
	}
	if err := check("MustNot", f.MustNot); err != nil {
		return err
	}
	if err := check("Priority", f.Priority); err != nil {
		return err
	}
	return check("Standard", f.Standard)
}

// tiers resolves 𝒢_d and 𝒢_d? to per-group masks over nG groups, the
// standard set under the default rule when it is not explicit. A group may
// be in both when the standard set is explicit; priority wins for its weight.
func (f Feedback) tiers(nG int) (prio, std []bool) {
	prio = make([]bool, nG)
	for _, id := range f.Priority {
		prio[id] = true
	}
	std = make([]bool, nG)
	if f.StandardExplicit {
		for _, id := range f.Standard {
			std[id] = true
		}
	} else {
		for g := range std {
			std[g] = !prio[g]
		}
	}
	return prio, std
}

// RefineUsers computes the refined population 𝒰′ of Definition 6.3 as a mask
// over user IDs: a user survives iff, for every property with a bucket in
// 𝒢₊, it belongs to at least one of that property's 𝒢₊ buckets (the
// per-property disjunction that avoids contradictions between buckets of the
// same property), and it belongs to no group in 𝒢₋.
//
// It walks member lists rather than probing every user: met[u] counts the
// properties u satisfies, one property's listed groups at a time, and a
// member of property i's groups advances only from i. So a user counts once
// per property however many of its listed groups hold it, and never again
// once it has missed an earlier property.
func RefineUsers(ix *groups.Index, fb Feedback) []bool {
	n := ix.Repo().NumUsers()
	allowed := make([]bool, n)
	// 𝒢₊ organized per property, properties in first-listed order.
	var props []profile.PropertyID
	havePerProp := map[profile.PropertyID][]groups.GroupID{}
	for _, id := range fb.MustHave {
		p := ix.Group(id).Prop
		if _, ok := havePerProp[p]; !ok {
			props = append(props, p)
		}
		havePerProp[p] = append(havePerProp[p], id)
	}
	met := make([]int32, n)
	for i, p := range props {
		for _, id := range havePerProp[p] {
			for _, m := range ix.Group(id).Members {
				if met[m] == int32(i) {
					met[m] = int32(i + 1)
				}
			}
		}
	}
	for u, c := range met {
		allowed[u] = c == int32(len(props))
	}
	for _, id := range fb.MustNot {
		for _, member := range ix.Group(id).Members {
			allowed[member] = false
		}
	}
	return allowed
}

// CustomInstance builds the tiered instance of Prop. 6.5's proof: weights of
// priority groups are scaled by M > max score_{𝒢_d?}, so any gain on a
// priority group dominates every possible standard gain — the greedy then
// optimizes s̃core(U) = score_{𝒢_d}(U)·M + score_{𝒢_d?}(U). Groups in
// neither set get weight zero (ignored for coverage). EBS instances lose
// their exact-arithmetic path here — tiered EBS weights are no longer 0/1
// digit vectors — so customized EBS falls back to float weights and is only
// exact while they fit in float64.
func CustomInstance(base *groups.Instance, fb Feedback) *groups.Instance {
	prio, std := fb.tiers(base.Index.NumGroups())
	// M must exceed the maximum standard-tier score Σ_{G∈𝒢_d?} wei(G)·cov(G),
	// summed in ascending group order so inexact sums are reproducible.
	var maxStd float64
	for g, ok := range std {
		if ok {
			maxStd += base.Wei[g] * float64(base.Cov[g])
		}
	}
	m := maxStd + 1
	wei := make([]float64, len(base.Wei))
	for i := range wei {
		switch {
		case prio[i]:
			wei[i] = base.Wei[i] * m
		case std[i]:
			wei[i] = base.Wei[i]
		}
	}
	cov := make([]int, len(base.Cov))
	copy(cov, base.Cov)
	return &groups.Instance{Index: base.Index, Wei: wei, Cov: cov}
}

// tieredBase returns tiered's empty-selection base row (tiered.BaseMarginals)
// derived from base's memoized one, or nil when the loop must sum it afresh.
// tiered is CustomInstance(base, ·): same index and coverage, new weights on
// the groups feedback touches. The row is a private copy of base's with
// tiered.Wei[g] − base.Wei[g] added to the members of every covered group
// whose weight changed — under default standard sets just the priority
// groups, so O(n + their links) instead of the fresh O(links) sum.
//
// Exactness gate: the derivation runs only when, on covered groups, every
// weight of both instances is a non-negative integer and their total is below
// 2^52. Then every partial sum on either route, and every delta, is an integer
// below 2^52, exactly representable, so the derived row equals the fresh sum
// bit for bit. Non-integer weights and tiered EBS weights fail the gate, which
// is checked before base's memo is touched.
func tieredBase(base, tiered *groups.Instance) []float64 {
	var total float64
	for g, c := range base.Cov {
		if c <= 0 {
			continue
		}
		for _, w := range [2]float64{base.Wei[g], tiered.Wei[g]} {
			if !(w >= 0) || w != math.Trunc(w) {
				return nil
			}
			total += w
		}
	}
	if !(total < 1<<52) {
		return nil
	}
	row := slices.Clone(base.BaseMarginals())
	csr := base.Index.CSR()
	for g, c := range base.Cov {
		d := tiered.Wei[g] - base.Wei[g]
		if c <= 0 || d == 0 {
			continue
		}
		for _, m := range csr.Members(groups.GroupID(g)) {
			row[m] += d
		}
	}
	return row
}

// CustomResult augments a selection result with the per-tier decomposition
// of its customized score.
type CustomResult struct {
	*Result
	// PriorityScore is score_{𝒢_d}(U) under the base (untiered) weights.
	PriorityScore float64
	// StandardScore is score_{𝒢_d?}(U) under the base weights.
	StandardScore float64
	// Allowed is the refined-population mask 𝒰′ that was used.
	Allowed []bool
}

// GreedyCustom solves CUSTOM-DIVERSITY: refine the population, tier the
// weights, and run the greedy over the refined candidates (Prop. 6.5). The
// approximation guarantee carries over because the tiered score remains
// submodular, non-negative and monotone (Lemma 6.6).
func GreedyCustom(base *groups.Instance, fb Feedback, budget int) (*CustomResult, error) {
	return GreedyCustomOpts(base, fb, budget, Options{})
}

// GreedyCustomOpts is GreedyCustom with explicit engine Options. The refined
// population 𝒰′ is often a small fraction of 𝒰; the engine's compacted
// candidate list makes the per-pick argmax O(|𝒰′|) rather than O(n) here. The
// loop starts from a row derived from base's memoized base marginals where
// that is exact (tieredBase); its cost counts toward StageTimings.InitNs.
func GreedyCustomOpts(base *groups.Instance, fb Feedback, budget int, opt Options) (*CustomResult, error) {
	if err := fb.Validate(base.Index); err != nil {
		return nil, err
	}
	allowed := RefineUsers(base.Index, fb)
	tiered := CustomInstance(base, fb)
	var t0 time.Time
	if opt.Timings != nil {
		t0 = time.Now()
	}
	seed := tieredBase(base, tiered)
	if opt.Timings != nil {
		opt.Timings.InitNs += time.Since(t0).Nanoseconds()
	}
	res := greedy(tiered, greedySpec{budget: budget, allowed: allowed, opt: opt, seed: seed})
	out := &CustomResult{Result: res, Allowed: allowed}
	// Decompose for reporting, using base weights per tier, in ascending
	// group order so inexact sums are reproducible.
	prio, std := fb.tiers(base.Index.NumGroups())
	hit := map[groups.GroupID]int{}
	var touched []groups.GroupID
	for _, u := range res.Users {
		for _, g := range base.Index.UserGroups(u) {
			if hit[g] == 0 {
				touched = append(touched, g)
			}
			hit[g]++
		}
	}
	slices.Sort(touched)
	for _, g := range touched {
		v := base.Wei[g] * float64(min(hit[g], base.Cov[g]))
		switch {
		case prio[g]:
			out.PriorityScore += v
		case std[g]:
			out.StandardScore += v
		}
	}
	return out, nil
}
