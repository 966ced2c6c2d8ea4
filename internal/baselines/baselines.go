// Package baselines implements the alternative user-selection algorithms
// Podium is evaluated against (Section 8.3): uniform random selection,
// clustering with near-mean representatives (a from-scratch sparse k-means
// replacing the paper's Scikit-Learn dependency), the distance-based
// S-Model greedy of Wu et al. maximizing pairwise Jaccard distances, and
// thin adapters over the core greedy and optimal solvers so experiments can
// treat every algorithm uniformly.
package baselines

import (
	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/stats"
)

// Selector is a user-selection algorithm under comparison.
type Selector interface {
	Name() string
	// Select chooses at most budget users from the indexed repository.
	Select(ix *groups.Index, budget int) []profile.UserID
}

// Podium adapts the core greedy (Algorithm 1) to the Selector interface.
type Podium struct {
	Weights  groups.WeightScheme
	Coverage groups.CoverageScheme
}

// Name implements Selector.
func (p Podium) Name() string { return "Podium" }

// Select implements Selector.
func (p Podium) Select(ix *groups.Index, budget int) []profile.UserID {
	return core.Greedy(groups.NewInstance(ix, p.Weights, p.Coverage, budget), budget).Users
}

// Random selects users uniformly at random without replacement — "a common
// practice in user selection for opinion procurement".
type Random struct{ Seed int64 }

// Name implements Selector.
func (Random) Name() string { return "Random" }

// Select implements Selector.
func (r Random) Select(ix *groups.Index, budget int) []profile.UserID {
	n := ix.Repo().NumUsers()
	if budget > n {
		budget = n
	}
	rng := stats.NewRand(r.Seed)
	idx := stats.SampleWithoutReplacement(rng, n, budget)
	users := make([]profile.UserID, budget)
	for i, v := range idx {
		users[i] = profile.UserID(v)
	}
	return users
}

// Optimal adapts the exhaustive solver; usable only for toy sizes.
type Optimal struct {
	Weights  groups.WeightScheme
	Coverage groups.CoverageScheme
}

// Name implements Selector.
func (Optimal) Name() string { return "Optimal" }

// Select implements Selector.
func (o Optimal) Select(ix *groups.Index, budget int) []profile.UserID {
	inst := groups.NewInstance(ix, o.Weights, o.Coverage, budget)
	return core.Exhaustive(inst, budget).Users
}
