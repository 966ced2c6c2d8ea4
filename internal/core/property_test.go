package core

import (
	"testing"
	"testing/quick"

	"podium/internal/groups"
	"podium/internal/profile"
)

// Property: the greedy score is non-decreasing in the budget, for every
// scheme combination (more budget can only add non-negative marginals).
func TestGreedyScoreMonotoneInBudgetProperty(t *testing.T) {
	instances := map[string]*groups.Instance{}
	get := func(seed int64, ws groups.WeightScheme, cs groups.CoverageScheme) *groups.Instance {
		key := string(rune(seed)) + ws.String() + cs.String()
		if inst, ok := instances[key]; ok {
			return inst
		}
		inst := randomInstance(seed, 30, 6, ws, cs, 10)
		instances[key] = inst
		return inst
	}
	f := func(seedRaw, bRaw, wRaw, cRaw uint8) bool {
		seed := int64(seedRaw % 4)
		ws := []groups.WeightScheme{groups.WeightIden, groups.WeightLBS}[wRaw%2]
		cs := []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp}[cRaw%2]
		inst := get(seed, ws, cs)
		b := int(bRaw%8) + 1
		small := Greedy(inst, b)
		large := Greedy(inst, b+1)
		return large.Score >= small.Score-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a customized selection never achieves a higher base score than
// the unconstrained greedy could — feedback only restricts.
func TestCustomNeverBeatsOptimalProperty(t *testing.T) {
	inst := randomInstance(5, 16, 5, groups.WeightLBS, groups.CoverSingle, 4)
	opt := Exhaustive(inst, 4)
	f := func(prioBits, notBits uint16) bool {
		n := inst.Index.NumGroups()
		var fb Feedback
		for g := 0; g < n && g < 16; g++ {
			if prioBits&(1<<g) != 0 {
				fb.Priority = append(fb.Priority, groups.GroupID(g))
			}
			if notBits&(1<<g) != 0 {
				fb.MustNot = append(fb.MustNot, groups.GroupID(g))
			}
		}
		res, err := GreedyCustom(inst, fb, 4)
		if err != nil {
			return false
		}
		return inst.Score(res.Users) <= opt.Score+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every selection variant returns distinct, in-range users and
// respects the budget.
func TestSelectionValidityProperty(t *testing.T) {
	inst := randomInstance(9, 25, 6, groups.WeightLBS, groups.CoverSingle, 12)
	n := inst.Index.Repo().NumUsers()
	check := func(users []profile.UserID, budget int) bool {
		if len(users) > budget {
			return false
		}
		seen := map[profile.UserID]bool{}
		for _, u := range users {
			if int(u) < 0 || int(u) >= n || seen[u] {
				return false
			}
			seen[u] = true
		}
		return true
	}
	f := func(bRaw uint8, variant uint8, noiseSeed int64) bool {
		b := int(bRaw%15) + 1
		switch variant % 4 {
		case 0:
			return check(Greedy(inst, b).Users, b)
		case 1:
			st := NewSelectorState()
			st.Sync(inst, nil, true)
			return check(st.Select(inst, b, Options{}).Users, b)
		case 2:
			return check(NoisyGreedy(inst, b, Noise{Seed: noiseSeed, WeightStdDev: 0.4, RandomTies: true}).Users, b)
		default:
			ebs := randomInstance(9, 25, 6, groups.WeightEBS, groups.CoverSingle, b)
			return check(Greedy(ebs, b).Users, b)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy marginals reported in the result always sum to the final
// score (no drift between the incremental accounting and the objective).
func TestMarginalAccountingProperty(t *testing.T) {
	f := func(seedRaw, bRaw uint8) bool {
		inst := randomInstance(int64(seedRaw%8), 20, 5, groups.WeightLBS, groups.CoverProp, 6)
		b := int(bRaw%6) + 1
		res := Greedy(inst, b)
		var sum float64
		for _, m := range res.Marginals {
			sum += m
		}
		diff := sum - inst.Score(res.Users)
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
