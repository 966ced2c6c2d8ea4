package core

import (
	"testing"

	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/stats"
)

// TestMergeEvaluationsCountCandidateLinks: a merge walks candidate links
// only. Its Evaluations equals a naive count, over its picks, of the
// (group, candidate member) pairs of every group a pick moves down its
// schedule — a full-instance merge would count every member of those groups.
func TestMergeEvaluationsCountCandidateLinks(t *testing.T) {
	forceShardedPaths(t)
	total := 0
	for _, r := range Rules() {
		for seed := int64(0); seed < 10; seed++ {
			ws := []groups.WeightScheme{groups.WeightLBS, groups.WeightIden}[seed%2]
			cs := []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp}[(seed/2)%2]
			budget := 3 + int(seed)%5
			inst := randomInstance(500+seed, 80+int(seed)*10, 6, ws, cs, budget)
			n := inst.Index.Repo().NumUsers()
			rng := stats.NewRand(900 + seed)
			in := make([]bool, n)
			cands := []profile.UserID{0}
			for u := 0; u < n; u++ {
				if u == 0 || rng.Float64() < 0.2 {
					cands = append(cands, profile.UserID(u))
					in[u] = true
				}
			}
			credit := r.credits(inst)
			for _, par := range []int{1, 8} {
				res, err := MergeGreedyRule(inst, cands, budget, r, Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				cnt := make([]int, inst.Index.NumGroups())
				want := 0
				for _, p := range res.Users {
					for _, g := range inst.Index.UserGroups(p) {
						pos := cnt[g]
						cnt[g]++
						if credit(int(g), pos) == credit(int(g), pos+1) {
							continue
						}
						for _, m := range inst.Index.Group(g).Members {
							if in[m] {
								want++
							}
						}
					}
				}
				if res.Evaluations != want {
					t.Fatalf("rule %s seed %d parallelism %d: merge Evaluations %d, want %d candidate links over its picks %v",
						r.Name(), seed, par, res.Evaluations, want, res.Users)
				}
				total += want
			}
		}
	}
	if total == 0 {
		t.Fatal("no merge moved a schedule: the count checks nothing")
	}
}

// TestMergeRejectsOutOfRangeCandidates pins the merge's error for a
// candidate outside the population, on the float loop and on the exact EBS
// coverage path.
func TestMergeRejectsOutOfRangeCandidates(t *testing.T) {
	for _, ws := range []groups.WeightScheme{groups.WeightLBS, groups.WeightEBS} {
		inst := randomInstance(3, 30, 5, ws, groups.CoverSingle, 4)
		for _, tc := range []struct {
			u    profile.UserID
			want string
		}{
			{30, "core: merge candidate 30 outside population of 30"},
			{-1, "core: merge candidate -1 outside population of 30"},
		} {
			res, err := MergeGreedyRule(inst, []profile.UserID{2, tc.u, 5}, 4, nil, Options{})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%v: candidate %d gave (%v, %v), want error %q", ws, tc.u, res, err, tc.want)
			}
		}
	}
}
