// Package core implements the paper's primary contribution: solving
// BASE-DIVERSITY (Definition 3.3) and CUSTOM-DIVERSITY (Section 6). The
// problem is NP-complete (Prop. 4.1), so the package provides the (1−1/e)
// greedy approximation of Algorithm 1 — one loop behind every entry point
// and pluggable rule (engine.go) — together with two refinements the paper's
// analysis licenses: an exact arithmetic path for EBS weights (whose float64
// form overflows), and exhaustive / branch-and-bound optimal solvers used to
// measure the empirical approximation ratio (Section 8.4).
package core

import (
	"podium/internal/groups"
	"podium/internal/profile"
)

// Result is the outcome of a selection run.
type Result struct {
	// Users holds the selected subset in selection order.
	Users []profile.UserID
	// Score is score_𝒢(Users) under the instance that produced the result.
	Score float64
	// Marginals[i] is the marginal contribution of Users[i] at the moment it
	// was selected; Score == Σ Marginals up to float rounding. Explanations
	// use it to show each user's contribution.
	Marginals []float64
	// Evaluations counts user↔group link traversals spent maintaining
	// marginal contributions (optimal.go counts search nodes instead) — a
	// machine-independent work measure.
	Evaluations int
}

// Greedy runs Algorithm 1: iteratively select the user with the greatest
// marginal contribution, updating the remaining users' marginals as groups
// saturate. Ties break toward the lowest user index (the paper breaks ties
// arbitrarily; fixing them keeps every variant and test deterministic).
// Instances with EBS weights are routed to the exact rank-vector
// implementation, since their float64 weights overflow beyond ~300 groups.
//
// Execution is the shared greedy loop (engine.go); the pre-engine
// implementation survives as ReferenceGreedy, which the equivalence property
// tests hold the loop to bit for bit.
func Greedy(inst *groups.Instance, budget int) *Result {
	return GreedyRestrictedOpts(inst, budget, nil, Options{})
}

// GreedyOpts is Greedy with explicit engine Options (e.g. Parallelism).
// Options never change the result, only how fast it is computed.
func GreedyOpts(inst *groups.Instance, budget int, opt Options) *Result {
	return GreedyRestrictedOpts(inst, budget, nil, opt)
}

// GreedyRestricted is Greedy over the refined population 𝒰′: when allowed is
// non-nil, only users with allowed[u] == true are candidates. This is the
// selection primitive behind CUSTOM-DIVERSITY (Prop. 6.5).
func GreedyRestricted(inst *groups.Instance, budget int, allowed []bool) *Result {
	return GreedyRestrictedOpts(inst, budget, allowed, Options{})
}

// GreedyRestrictedOpts is GreedyRestricted with explicit engine Options.
func GreedyRestrictedOpts(inst *groups.Instance, budget int, allowed []bool, opt Options) *Result {
	return greedy(inst, greedySpec{budget: budget, allowed: allowed, opt: opt})
}
