package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/stats"
	"podium/internal/synth"
)

func TestRuleRegistry(t *testing.T) {
	rules := Rules()
	if len(rules) != 4 {
		t.Fatalf("registry has %d rules, want 4", len(rules))
	}
	if !rules[0].IsDefault() || rules[0].Name() != "coverage" {
		t.Fatalf("first registered rule is %q (default=%v), want the coverage default", rules[0].Name(), rules[0].IsDefault())
	}
	if DefaultRule() != rules[0] {
		t.Fatal("DefaultRule is not the registered default")
	}
	wantNames := []string{"coverage", "fairness-floor", "harmonic", "maxcov"}
	names := RuleNames()
	for i, n := range wantNames {
		if names[i] != n {
			t.Fatalf("RuleNames() = %v, want %v", names, wantNames)
		}
	}
	for _, r := range rules {
		if r.Description() == "" {
			t.Fatalf("rule %q has no description", r.Name())
		}
		got, err := LookupRule(r.Name())
		if err != nil || got != r {
			t.Fatalf("LookupRule(%q) = %v, %v", r.Name(), got, err)
		}
	}
	if r, err := LookupRule(""); err != nil || r != DefaultRule() {
		t.Fatalf("LookupRule(\"\") = %v, %v, want the default", r, err)
	}
	if _, err := LookupRule("borda"); err == nil {
		t.Fatal("LookupRule on an unknown name did not error")
	} else {
		for _, n := range wantNames {
			if !strings.Contains(err.Error(), n) {
				t.Fatalf("unknown-rule error %q does not list registered rule %q", err, n)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustRule on an unknown name did not panic")
			}
		}()
		MustRule("borda")
	}()
	// EBS compatibility matrix: coverage has the exact rank path, maxcov never
	// reads weights, the weight-scaling rules are rejected.
	for _, tc := range []struct {
		name string
		ok   bool
	}{{"coverage", true}, {"maxcov", true}, {"harmonic", false}, {"fairness-floor", false}} {
		if MustRule(tc.name).EBSCompatible() != tc.ok {
			t.Fatalf("rule %q EBSCompatible = %v, want %v", tc.name, !tc.ok, tc.ok)
		}
	}
}

func TestQuantizeCreditDyadic(t *testing.T) {
	const q = 1 << creditQuantumBits
	for _, x := range []float64{1.0 / 3, 2.0 / 7, 5.0 / 11, 17.0 / 13, 1e-9, 123456.789} {
		v := quantizeCredit(x)
		if scaled := v * q; scaled != math.Trunc(scaled) {
			t.Fatalf("quantizeCredit(%v) = %v is not a multiple of 2^-%d", x, v, creditQuantumBits)
		}
		if math.Abs(v-x) > 1.0/(2*q) {
			t.Fatalf("quantizeCredit(%v) = %v rounded farther than half a quantum", x, v)
		}
	}
	// Integers are fixed points: the coverage/fairness-floor schedules must
	// survive quantization untouched.
	for _, x := range []float64{0, 1, 2, 37, 1 << 30} {
		if quantizeCredit(x) != x {
			t.Fatalf("quantizeCredit(%v) moved an integer", x)
		}
	}
}

// naiveRuleGreedy is the rule-general test oracle: Algorithm 1 with no
// incremental state. At every pick it re-sums each remaining candidate's row
// of current credits, ascending, and keeps the first strictly greatest. The
// credit arithmetic is exact (rules.go), so its floats must equal the loop's
// base-minus-retraction marginals bit for bit.
func naiveRuleGreedy(inst *groups.Instance, budget int, allowed []bool, r *Rule) *Result {
	credit := r.credits(inst)
	csr := inst.Index.CSR()
	n := inst.Index.Repo().NumUsers()
	cnt := make([]int, inst.Index.NumGroups())
	taken := make([]bool, n)
	res := &Result{}
	for len(res.Users) < budget {
		best, bm := -1, 0.0
		for u := 0; u < n; u++ {
			if taken[u] || allowed != nil && !allowed[u] {
				continue
			}
			var m float64
			for _, g := range csr.UserGroups(profile.UserID(u)) {
				m += credit(int(g), cnt[g])
			}
			if best < 0 || m > bm {
				best, bm = u, m
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		res.Users = append(res.Users, profile.UserID(best))
		res.Marginals = append(res.Marginals, bm)
		res.Score += bm
		for _, g := range csr.UserGroups(profile.UserID(best)) {
			cnt[g]++
		}
	}
	return res
}

// checkOracles holds a rule selection to the independent oracles: the naive
// greedy for every rule the float arithmetic holds exactly (all but coverage
// on EBS, which runs exact rank vectors) and ReferenceGreedy for coverage.
func checkOracles(t *testing.T, inst *groups.Instance, budget int, allowed []bool, r *Rule, got *Result, what string) {
	t.Helper()
	if !(inst.EBS && r.IsDefault()) {
		if naive := naiveRuleGreedy(inst, budget, allowed, r); !resultsIdentical(naive, got) {
			t.Fatalf("%s: rule %q diverged from the naive greedy\nnaive %v %v\ngot   %v %v",
				what, r.Name(), naive.Users, naive.Marginals, got.Users, got.Marginals)
		}
	}
	if r.IsDefault() {
		if ref := ReferenceGreedy(inst, budget, allowed); !resultsIdentical(ref, got) {
			t.Fatalf("%s: coverage diverged from ReferenceGreedy\nreference %v %v\ngot       %v %v",
				what, ref.Users, ref.Marginals, got.Users, got.Marginals)
		}
	}
}

// coveredGroups counts the distinct groups with a positive requirement that
// the selection touches.
func coveredGroups(inst *groups.Instance, users []profile.UserID) int {
	seen := make(map[groups.GroupID]bool)
	for _, u := range users {
		for _, g := range inst.Index.UserGroups(u) {
			if inst.Cov[g] > 0 {
				seen[g] = true
			}
		}
	}
	return len(seen)
}

// TestRulesPropertySuite is the per-rule acceptance property: 50 randomized
// instances per rule, each checked at parallelism 1/2/8 through the greedy
// loop and the GreeDi merge round. Every parallelism must agree bit for bit,
// selections must match the independent oracles (checkOracles), and
// rule-specific invariants (maxcov counting, fairness floors, coverage
// scoring) must hold.
func TestRulesPropertySuite(t *testing.T) {
	forceShardedPaths(t)
	weightSchemes := []groups.WeightScheme{groups.WeightIden, groups.WeightLBS, groups.WeightEBS}
	coverSchemes := []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp}
	for _, r := range Rules() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			for i := 0; i < 50; i++ {
				seed := int64(i)
				rng := stats.NewRand(7000 + seed)
				ws := weightSchemes[i%len(weightSchemes)]
				cs := coverSchemes[(i/3)%len(coverSchemes)]
				nUsers := 20 + rng.Intn(100)
				nProps := 3 + rng.Intn(10)
				budget := 1 + rng.Intn(12)
				inst := randomInstance(seed, nUsers, nProps, ws, cs, budget)
				if inst.EBS && !r.EBSCompatible() {
					// The incompatible combination must be rejected, then the
					// instance re-rolls under LBS so every rule still sees 50
					// working instances.
					if _, err := GreedyRule(inst, budget, r, Options{}); err == nil {
						t.Fatalf("instance %d: rule %q accepted an EBS instance", i, r.Name())
					}
					ws = groups.WeightLBS
					inst = randomInstance(seed, nUsers, nProps, ws, cs, budget)
				}
				n := inst.Index.Repo().NumUsers()

				var allowed []bool
				switch i % 3 {
				case 1, 2:
					p := 0.5
					if i%3 == 2 {
						p = 0.1
					}
					allowed = make([]bool, n)
					for u := range allowed {
						allowed[u] = rng.Float64() < p
					}
				}

				want, err := GreedyRestrictedRule(inst, budget, allowed, r, Options{})
				if err != nil {
					t.Fatalf("instance %d (ws=%v cs=%v): %v", i, ws, cs, err)
				}
				for _, par := range []int{1, 2, 8} {
					eager, err := GreedyRestrictedRule(inst, budget, allowed, r, Options{Parallelism: par})
					if err != nil {
						t.Fatalf("instance %d parallelism %d: %v", i, par, err)
					}
					if !resultsIdentical(want, eager) {
						t.Fatalf("instance %d (ws=%v cs=%v n=%d B=%d): eager diverged at parallelism %d\nwant %v %v\ngot  %v %v",
							i, ws, cs, n, budget, par, want.Users, want.Marginals, eager.Users, eager.Marginals)
					}
				}
				checkOracles(t, inst, budget, allowed, r, want, fmt.Sprintf("instance %d (ws=%v cs=%v)", i, ws, cs))

				// Rule-specific invariants.
				switch r.Name() {
				case "coverage":
					if !inst.EBS {
						if got := inst.Score(want.Users); got != want.Score {
							t.Fatalf("instance %d: greedy score %v, Instance.Score %v", i, want.Score, got)
						}
					}
				case "maxcov":
					if got := float64(coveredGroups(inst, want.Users)); got != want.Score {
						t.Fatalf("instance %d: maxcov score %v, distinct coverable groups %v", i, want.Score, got)
					}
				case "fairness-floor":
					checkFairnessFloor(t, inst, allowed, want.Users, i)
				}

				// GreeDi merge: partition the candidates across shards, run the
				// restricted rule-greedy per shard, merge the winner union (one
				// winner listed twice). The merge runs on the union's local
				// view and must equal the full-instance loop on its mask.
				shards := 2 + i%2
				var winners []profile.UserID
				for s := 0; s < shards; s++ {
					mask := make([]bool, n)
					for u := 0; u < n; u++ {
						mask[u] = (allowed == nil || allowed[u]) && u%shards == s
					}
					part, err := GreedyRestrictedRule(inst, budget, mask, r, Options{})
					if err != nil {
						t.Fatalf("instance %d shard %d: %v", i, s, err)
					}
					winners = append(winners, part.Users...)
				}
				if len(winners) > 0 {
					winners = append(winners, winners[len(winners)/2])
				}
				union := make([]bool, n)
				for _, u := range winners {
					union[u] = true
				}
				mergedWant, err := MergeGreedyRule(inst, winners, budget, r, Options{})
				if err != nil {
					t.Fatalf("instance %d: merge: %v", i, err)
				}
				for _, u := range mergedWant.Users {
					if !union[u] {
						t.Fatalf("instance %d: merged pick %d outside the candidate union", i, u)
					}
				}
				for _, par := range []int{1, 2, 8} {
					merged, err := MergeGreedyRule(inst, winners, budget, r, Options{Parallelism: par})
					if err != nil {
						t.Fatalf("instance %d: merge at parallelism %d: %v", i, par, err)
					}
					if !resultsIdentical(mergedWant, merged) {
						t.Fatalf("instance %d: merge diverged at parallelism %d", i, par)
					}
					restricted, err := GreedyRestrictedRule(inst, budget, union, r, Options{Parallelism: par})
					if err != nil {
						t.Fatalf("instance %d: restricted to the union at parallelism %d: %v", i, par, err)
					}
					if !resultsIdentical(restricted, merged) {
						t.Fatalf("instance %d (ws=%v cs=%v): merge diverged from the restricted loop on its union at parallelism %d\nrestricted %v %v\nmerge      %v %v",
							i, ws, cs, par, restricted.Users, restricted.Marginals, merged.Users, merged.Marginals)
					}
				}
			}
		})
	}
}

// checkFairnessFloor asserts the dominance invariant: as long as some
// remaining candidate can cover a not-yet-represented group with a positive
// requirement, the next pick covers at least one such group. (A pick covering
// k new coverable groups scores in [kM, kM+MaxScore) with M > MaxScore, so
// the argmax always maximizes k first.)
func checkFairnessFloor(t *testing.T, inst *groups.Instance, allowed []bool, picks []profile.UserID, instIdx int) {
	t.Helper()
	ix := inst.Index
	n := ix.Repo().NumUsers()
	covered := make([]bool, ix.NumGroups())
	taken := make([]bool, n)
	newCoverable := func(u profile.UserID) int {
		k := 0
		for _, g := range ix.UserGroups(u) {
			if inst.Cov[g] > 0 && !covered[g] {
				k++
			}
		}
		return k
	}
	for pi, p := range picks {
		reachable := false
		for u := 0; u < n && !reachable; u++ {
			if taken[u] || (allowed != nil && !allowed[u]) {
				continue
			}
			reachable = newCoverable(profile.UserID(u)) > 0
		}
		if reachable && newCoverable(p) == 0 {
			t.Fatalf("instance %d: fairness-floor pick %d (user %d) covers no new coverable group while one was reachable", instIdx, pi, p)
		}
		taken[p] = true
		for _, g := range ix.UserGroups(p) {
			if inst.Cov[g] > 0 {
				covered[g] = true
			}
		}
	}
}

// TestSelectorStateRuleBitIdentity extends the delta-repair bit-identity
// property to every registered rule: a repaired per-rule SelectorState must
// select bit-identically to a fresh rule run and to the independent oracles
// after every mutation batch —
// including a reshaping batch and an oversized batch that forces the
// recompute fallback. EBS-scheme sweeps run only the EBS-compatible rules.
func TestSelectorStateRuleBitIdentity(t *testing.T) {
	forceShardedPaths(t)
	const budget = 6
	css := []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp}
	for _, r := range Rules() {
		r := r
		wss := []groups.WeightScheme{groups.WeightLBS, groups.WeightIden}
		if r.EBSCompatible() {
			wss = append(wss, groups.WeightEBS)
		}
		t.Run(r.Name(), func(t *testing.T) {
			var totalRepairs, totalRecomputes uint64
			for i := 0; i < 50; i++ {
				users := 40 + i*4
				var cfg synth.Config
				switch i % 3 {
				case 0:
					cfg = synth.TripAdvisorLike(users)
				case 1:
					cfg = synth.YelpLike(users)
				default:
					cfg = synth.ScaleLike(users)
				}
				cfg.Seed += int64(i)
				ws := wss[i%len(wss)]
				cs := css[(i/3)%len(css)]
				t.Run(fmt.Sprintf("%s-%d-%s-%s", cfg.Name, users, ws, cs), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(11000 + i)))
					repo := synth.Generate(cfg).Repo
					ix := groups.Build(repo, groups.Config{K: 3})
					ix.Freeze()

					st := NewSelectorStateRule(r)
					inst := groups.NewInstance(ix, ws, cs, budget)
					st.Sync(inst, nil, false)

					check := func(round int, inst *groups.Instance) {
						t.Helper()
						want, err := GreedyRule(inst, budget, r, Options{})
						if err != nil {
							t.Fatal(err)
						}
						checkOracles(t, inst, budget, nil, r, want, fmt.Sprintf("round %d", round))
						for _, par := range []int{1, 2, 8} {
							if got := st.Select(inst, budget, Options{Parallelism: par}); !sameResult(want, got) {
								t.Fatalf("round %d: repaired %q state diverged from fresh run at parallelism %d\nwant %v %v\ngot  %v %v",
									round, r.Name(), par, want.Users, want.Marginals, got.Users, got.Marginals)
							}
						}
					}
					check(0, inst)

					for round := 1; round <= 3; round++ {
						repo2 := repo.Clone()
						ix2 := ix.Clone(repo2)
						ops := 1 + rng.Intn(6)
						newProp := ""
						switch round {
						case 2:
							newProp = fmt.Sprintf("rules-live-prop-%d-%d", i, round)
						case 3:
							ops = repo2.NumUsers()
						}
						applyRandomBatch(t, rng, repo2, ix2, ops, newProp)
						d := ix2.TakeDelta()
						ix2.Freeze()
						repo, ix = repo2, ix2
						inst = groups.NewInstance(ix, ws, cs, budget)
						st.Sync(inst, d.Users, d.Reshaped)
						check(round, inst)
					}
					totalRepairs += st.Repairs
					totalRecomputes += st.Recomputes
				})
			}
			if totalRepairs == 0 {
				t.Fatalf("rule %q: no Sync took the delta-repair path", r.Name())
			}
			if totalRecomputes == 0 {
				t.Fatalf("rule %q: no Sync took the full-recompute path", r.Name())
			}
		})
	}
}

// TestGreedyCompleteRuleContinuation holds the rule-aware top-up to the
// greedy continuation property: completing a prefix of a full run's panel
// reproduces the remainder of that run exactly — credits depend only on each
// group's schedule position, so restarting from t0 = |have ∩ G| is
// indistinguishable from never having stopped. The top-up runs at
// parallelism 1, 2 and 8 with the sharded paths forced on.
func TestGreedyCompleteRuleContinuation(t *testing.T) {
	forceShardedPaths(t)
	wss := []groups.WeightScheme{groups.WeightLBS, groups.WeightIden}
	css := []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp}
	for _, r := range Rules() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				budget := 4 + int(seed)%6
				inst := randomInstance(300+seed, 60+int(seed)*7, 4+int(seed)%6, wss[seed%2], css[(seed/2)%2], budget)
				full, err := GreedyRule(inst, budget, r, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(full.Users) < 2 {
					continue
				}
				h := 1 + int(seed)%(len(full.Users)-1)
				have := full.Users[:h]
				want := full.Users[h:]
				for _, par := range []int{1, 2, 8} {
					rest, err := GreedyCompleteRule(inst, budget-h, have, nil, r, Options{Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					if len(rest.Users) != len(want) {
						t.Fatalf("rule %q seed %d par %d: completion selected %v, want %v", r.Name(), seed, par, rest.Users, want)
					}
					for j := range want {
						if rest.Users[j] != want[j] {
							t.Fatalf("rule %q seed %d par %d: completion selected %v, want %v", r.Name(), seed, par, rest.Users, want)
						}
						if rest.Marginals[j] != full.Marginals[h+j] {
							t.Fatalf("rule %q seed %d par %d: completion marginal %d = %v, full run %v",
								r.Name(), seed, par, j, rest.Marginals[j], full.Marginals[h+j])
						}
					}
				}
				// Members of have never re-enter the pool even with budget slack.
				again, err := GreedyCompleteRule(inst, budget, have, nil, r, Options{})
				if err != nil {
					t.Fatal(err)
				}
				inHave := make(map[profile.UserID]bool, len(have))
				for _, u := range have {
					inHave[u] = true
				}
				for _, u := range again.Users {
					if inHave[u] {
						t.Fatalf("rule %q seed %d: completion re-selected panel member %d", r.Name(), seed, u)
					}
				}
			}
		})
	}
}

// TestMaxcovRunsOnEBS pins the ebsOK contract: maxcov never reads weights, so
// it must run (and agree with the naive oracle at any parallelism) on an
// EBS-weighted instance where the weight-scaling rules are rejected.
func TestMaxcovRunsOnEBS(t *testing.T) {
	inst := randomInstance(99, 120, 12, groups.WeightEBS, groups.CoverSingle, 8)
	if !inst.EBS {
		t.Fatal("instance did not take the EBS path")
	}
	r := MustRule("maxcov")
	want, err := GreedyRule(inst, 8, r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := GreedyRule(inst, 8, r, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(want, par) {
		t.Fatal("maxcov diverged at parallelism 4 on an EBS instance")
	}
	checkOracles(t, inst, 8, nil, r, want, "EBS instance")
	if got := float64(coveredGroups(inst, want.Users)); got != want.Score {
		t.Fatalf("maxcov EBS score %v, distinct coverable groups %v", want.Score, got)
	}
	for _, name := range []string{"harmonic", "fairness-floor"} {
		if _, err := GreedyRule(inst, 8, MustRule(name), Options{}); err == nil {
			t.Fatalf("rule %q accepted an EBS instance", name)
		}
	}
}

// TestRuleBaseMemo: a non-default rule's run without start positions starts
// from the instance's memoized base row — computed once, equal to a fresh
// group-major sum, and never written by the runs that copy it — while a
// top-up from a partial panel sums its own row.
func TestRuleBaseMemo(t *testing.T) {
	for i, r := range Rules() {
		if r.IsDefault() {
			continue
		}
		inst := randomInstance(int64(40+i), 90, 8, groups.WeightLBS, groups.CoverProp, 6)
		want := r.baseFrom(inst, nil)
		first, err := GreedyRule(inst, 6, r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		row := inst.RuleBase(r.Name(), func() []float64 {
			t.Fatalf("rule %s: base row recomputed after a run memoized it", r.Name())
			return nil
		})
		allowed := make([]bool, inst.Index.Repo().NumUsers())
		for u := range allowed {
			allowed[u] = u%3 != 0
		}
		for _, par := range []int{1, 8} {
			again, err := GreedyRule(inst, 6, r, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if !resultsIdentical(first, again) {
				t.Fatalf("rule %s parallelism %d: a run from the memo diverged", r.Name(), par)
			}
			if _, err := MergeGreedyRule(inst, first.Users, 3, r, Options{Parallelism: par}); err != nil {
				t.Fatal(err)
			}
			if _, err := GreedyCompleteRule(inst, 3, first.Users[:2], allowed, r, Options{Parallelism: par}); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(row, want) || !slices.Equal(inst.RuleBase(r.Name(), nil), want) {
			t.Fatalf("rule %s: memoized base row differs from a fresh sum", r.Name())
		}
	}
}
