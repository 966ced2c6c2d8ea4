package core

import (
	"fmt"
	"math"

	"podium/internal/groups"
	"podium/internal/profile"
)

// Pluggable selection rules: the marginal-gain objective, factored out of the
// engine. Every rule is expressed as a per-group *credit schedule*
//
//	w_G(t) = credit the (t+1)-th selected member of G contributes,
//
// non-increasing in t. The rule objective Σ_G Σ_{t<|U∩G|} w_G(t) is then
// monotone submodular by construction — a user's marginal contribution
// Σ_{G∋u} w_G(t_G) only shrinks as the selection grows — so one greedy loop
// (engine.go) serves every rule with the (1−1/e) guarantee, the
// delta-repaired SelectorState stays exact (base rows are plain sums of
// initial credits), and the GreeDi merge round keeps its constant-factor
// composition.
//
// The registered rules:
//
//   - coverage (default): w_G(t) = wei(G) while t < cov(G), then 0 — exactly
//     the paper's score_𝒢 objective (Definition 3.3): the credit drops by
//     wei(G) once, when the group saturates. On EBS instances it runs the
//     exact rank-vector path (ebs.go).
//   - harmonic: w_G(t) = wei(G)/(t+1) — proportional (diminishing) credit in
//     the spirit of proportional-approval weighting: the k-th member of a
//     group is worth 1/k of the first, so large groups keep attracting
//     representatives without ever saturating.
//   - maxcov: w_G(t) = 1 at t = 0, else 0 — pure max-coverage over groups with
//     a remaining requirement, ignoring weights entirely. Because it never
//     reads wei(G), it runs on EBS instances through the float engine.
//   - fairness-floor: minimum representation first (Moumoulidou et al.,
//     Diverse Data Selection under Fairness Constraints): until a group has
//     one representative its credit is lifted by a dominance constant
//     M > MaxScore, so the greedy covers every coverable group's floor before
//     optimizing coverage — the CustomInstance tiering idiom applied to
//     per-group floors. Past the floor the schedule is the coverage schedule.
//
// Bit-identity across paths: the loop's retraction (base − Σ d), a
// SelectorState's repaired row sums and a naive fresh sum of current credits
// compute the same reals with no rounding, because the arithmetic is exact —
// standard weights are integers. Harmonic credits are not integers, so they
// are quantized to dyadic rationals (multiples of 2⁻²⁰): sums and differences
// of dyadics at one scale are exact in float64, restoring the same
// every-path-agrees property for every rule. The rules property suite
// (rules_test.go) enforces it against a naive re-summing greedy across
// GreedyRule, SelectorState repair and MergeGreedyRule at parallelism 1, 2
// and 8.

// creditFunc is one instance-bound credit schedule: w_G(t) for group g after
// t of its members have been selected. Implementations must be non-increasing
// in t and non-negative.
type creditFunc func(g, t int) float64

// Rule is one pluggable selection objective. Rules are stateless descriptors;
// per-instance state (dominance constants, weight tables) binds when a run
// starts. The zero Rule is invalid — use LookupRule or DefaultRule.
type Rule struct {
	name        string
	description string
	def         bool
	// ebsExact routes EBS instances to the exact rank-vector greedy (only
	// the coverage rule, whose objective the rank vectors encode).
	ebsExact bool
	// ebsOK marks rules whose credits never read Wei, so EBS instances —
	// whose float weights overflow — run the float engine safely.
	ebsOK bool
	// credits binds the schedule to an instance.
	credits func(inst *groups.Instance) creditFunc
}

// Name returns the rule's wire name ("coverage", "harmonic", ...).
func (r *Rule) Name() string { return r.name }

// Description is the one-line human description served by /api/v1/rules.
func (r *Rule) Description() string { return r.description }

// IsDefault reports whether this is the default rule (coverage).
func (r *Rule) IsDefault() bool { return r.def }

// EBSCompatible reports whether the rule can run on EBS-weighted instances.
func (r *Rule) EBSCompatible() bool { return r.ebsExact || r.ebsOK }

// creditQuantumBits sets the dyadic quantization grid for non-integer
// credits: 2⁻²⁰ ≈ 1e-6 relative resolution, far below any meaningful
// preference difference and fine enough that quantization never reorders two
// genuinely different marginals.
const creditQuantumBits = 20

// quantizeCredit rounds x to the nearest multiple of 2⁻²⁰. All engine
// arithmetic over quantized credits — base-row sums, retraction differences,
// repaired rows — is exact in float64 (dyadic rationals on one grid), which
// is what keeps every execution path bit-identical per rule.
func quantizeCredit(x float64) float64 {
	const q = 1 << creditQuantumBits
	return math.Round(x*q) / q
}

var ruleCoverage = &Rule{
	name:        "coverage",
	description: "Weighted group coverage up to each group's requirement (the paper's score function; default).",
	def:         true,
	ebsExact:    true,
	credits: func(inst *groups.Instance) creditFunc {
		wei, cov := inst.Wei, inst.Cov
		return func(g, t int) float64 {
			if t < cov[g] {
				return wei[g]
			}
			return 0
		}
	},
}

var ruleFairnessFloor = &Rule{
	name:        "fairness-floor",
	description: "Guarantees one representative per coverable group before maximizing coverage (Moumoulidou et al.).",
	credits: func(inst *groups.Instance) creditFunc {
		// M dominates any standard marginal (≤ MaxScore), so floor credit
		// always outranks post-floor credit; floor+1 keeps it an integer,
		// preserving exact float sums for integer-weighted instances.
		m := math.Floor(inst.MaxScore()) + 1
		wei, cov := inst.Wei, inst.Cov
		return func(g, t int) float64 {
			var w float64
			if t < cov[g] {
				w = wei[g]
			}
			if t < 1 && cov[g] > 0 {
				return m + w
			}
			return w
		}
	},
}

var ruleHarmonic = &Rule{
	name:        "harmonic",
	description: "Diminishing per-group credit wei(G)/k for a group's k-th representative; groups never saturate.",
	credits: func(inst *groups.Instance) creditFunc {
		wei, cov := inst.Wei, inst.Cov
		return func(g, t int) float64 {
			if cov[g] <= 0 {
				// Residual instances zero a group's requirement once the
				// existing panel covers it; harmonic honors that so campaign
				// repair chases only what was lost.
				return 0
			}
			return quantizeCredit(wei[g] / float64(t+1))
		}
	},
}

var ruleMaxcov = &Rule{
	name:        "maxcov",
	description: "Pure max-coverage: one unit for a group's first representative, no weight scaling.",
	ebsOK:       true,
	credits: func(inst *groups.Instance) creditFunc {
		cov := inst.Cov
		return func(g, t int) float64 {
			if t == 0 && cov[g] > 0 {
				return 1
			}
			return 0
		}
	},
}

// ruleRegistry lists the registered rules in wire order (alphabetical, which
// places the default first). Registration is static: rules are part of the
// API surface, not a runtime extension point.
var ruleRegistry = []*Rule{ruleCoverage, ruleFairnessFloor, ruleHarmonic, ruleMaxcov}

// Rules returns the registered rules in stable wire order. Callers must not
// modify the returned slice.
func Rules() []*Rule { return ruleRegistry }

// DefaultRule returns the coverage rule — the objective every pre-rules
// release ran, and what an empty rule name selects.
func DefaultRule() *Rule { return ruleCoverage }

// RuleNames returns the registered rule names in wire order.
func RuleNames() []string {
	names := make([]string, len(ruleRegistry))
	for i, r := range ruleRegistry {
		names[i] = r.name
	}
	return names
}

// LookupRule resolves a rule by wire name; the empty string selects the
// default. Unknown names error, listing the registered rules.
func LookupRule(name string) (*Rule, error) {
	if name == "" {
		return ruleCoverage, nil
	}
	for _, r := range ruleRegistry {
		if r.name == name {
			return r, nil
		}
	}
	return nil, fmt.Errorf("core: unknown rule %q (registered rules: %v)", name, RuleNames())
}

// OrDefault normalizes a nil rule to the default.
func (r *Rule) OrDefault() *Rule {
	if r == nil {
		return ruleCoverage
	}
	return r
}

// checkInstance rejects rule/instance combinations the greedy loop cannot run
// exactly (weight-reading rules on EBS instances, whose float weights
// overflow).
func (r *Rule) checkInstance(inst *groups.Instance) error {
	if inst.EBS && !r.EBSCompatible() {
		return fmt.Errorf("core: rule %q does not support EBS weights (exact rank arithmetic implements only the coverage objective)", r.name)
	}
	return nil
}

// baseFrom computes per-user base marginals with each group's schedule
// advanced to t0[g] selected members (nil means zero everywhere). The pass
// runs group-major in ascending GroupID order — per user, exactly the float
// order of summing its CSR row ascending, the BaseMarginals contract that
// makes delta repair's per-row re-sums bit-identical.
func (r *Rule) baseFrom(inst *groups.Instance, t0 []int) []float64 {
	credit := r.credits(inst)
	ix := inst.Index
	csr := ix.CSR()
	marg := make([]float64, ix.Repo().NumUsers())
	for g, lim := 0, ix.NumGroups(); g < lim; g++ {
		t := 0
		if t0 != nil {
			t = t0[g]
		}
		w := credit(g, t)
		if w == 0 {
			continue
		}
		for _, m := range csr.Members(groups.GroupID(g)) {
			marg[m] += w
		}
	}
	return marg
}

// initialCredits returns w_G(0) for every group — the effective weights a
// rule's base rows sum, which the SelectorState compares across epochs to
// find rows invalidated by a mutation batch.
func (r *Rule) initialCredits(inst *groups.Instance) []float64 {
	credit := r.credits(inst)
	nG := inst.Index.NumGroups()
	eff := make([]float64, nG)
	for g := 0; g < nG; g++ {
		eff[g] = credit(g, 0)
	}
	return eff
}

// GreedyRule runs Algorithm 1 under a pluggable rule; a nil rule selects the
// default (coverage), bit-identical to Greedy. EBS instances accept only
// EBS-compatible rules.
func GreedyRule(inst *groups.Instance, budget int, r *Rule, opt Options) (*Result, error) {
	return GreedyRestrictedRule(inst, budget, nil, r, opt)
}

// GreedyRestrictedRule is GreedyRule over a restricted candidate set.
func GreedyRestrictedRule(inst *groups.Instance, budget int, allowed []bool, r *Rule, opt Options) (*Result, error) {
	return greedyRule(inst, greedySpec{budget: budget, allowed: allowed, rule: r, opt: opt})
}

// greedyRule rejects rule/instance combinations the loop cannot run exactly,
// then runs it.
func greedyRule(inst *groups.Instance, sp greedySpec) (*Result, error) {
	if err := sp.rule.OrDefault().checkInstance(inst); err != nil {
		return nil, err
	}
	return greedy(inst, sp), nil
}

// GreedyCompleteRule tops up a partial panel under a pluggable rule, nil
// meaning coverage: it resumes Algorithm 1 from the selection have, over the
// candidates in allowed (nil: everyone). Each group's schedule starts at
// t = |have ∩ G| (duplicates in have count once); for coverage that is the
// residual instance whose requirements the panel's hits already reduced.
// Members of have never re-enter the candidate pool, and the returned
// marginals are true marginals with respect to have.
//
// This is the coverage-repair primitive of the campaign orchestrator
// (internal/campaign): after dropouts shrink a solicited panel, the
// replacement picks chase exactly the credit the dropouts took with them.
func GreedyCompleteRule(inst *groups.Instance, budget int, have []profile.UserID, allowed []bool, r *Rule, opt Options) (*Result, error) {
	sp := greedySpec{budget: budget, allowed: allowed, rule: r, opt: opt}
	if len(have) > 0 {
		ix := inst.Index
		n := ix.Repo().NumUsers()
		sp.t0 = make([]int, ix.NumGroups())
		sp.allowed = make([]bool, n)
		for u := range sp.allowed {
			sp.allowed[u] = allowed == nil || allowed[u]
		}
		seen := make(map[profile.UserID]bool, len(have))
		for _, u := range have {
			if int(u) < 0 || int(u) >= n || seen[u] {
				continue
			}
			seen[u] = true
			sp.allowed[u] = false
			for _, g := range ix.UserGroups(u) {
				sp.t0[g]++
			}
		}
	}
	return greedyRule(inst, sp)
}

// MustRule is LookupRule for call sites with static rule strings (tests,
// benches); it panics on unknown names.
func MustRule(name string) *Rule {
	r, err := LookupRule(name)
	if err != nil {
		panic(err)
	}
	return r
}
